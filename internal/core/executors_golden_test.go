package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"popper/internal/aver"
)

// The gassyfs executor drives its clients concurrently; this pins the
// end-to-end determinism claim at the artifact level: the results.csv
// the pipeline archives, and the Aver verdicts derived from it, are
// byte-identical whether the hosts run serially or in parallel.
func TestGassyfsExecutorHostJobsInvariant(t *testing.T) {
	run := func(jobs string) ([]byte, string) {
		p, res := runTemplate(t, "gassyfs", map[string]string{
			"nodes": "1,2,4", "sources": "24", "segment_mb": "64", "jobs": jobs,
		})
		csv, ok := p.ExperimentFile("exp", "results.csv")
		if !ok {
			t.Fatal("results.csv missing")
		}
		return csv, aver.FormatResults(res.Validation)
	}
	csvSerial, verdictSerial := run("1")
	csvParallel, verdictParallel := run("8")
	if string(csvSerial) != string(csvParallel) {
		t.Fatalf("results.csv differs between jobs=1 and jobs=8:\n--- jobs=1\n%s\n--- jobs=8\n%s",
			csvSerial, csvParallel)
	}
	if verdictSerial != verdictParallel {
		t.Fatalf("verdicts differ:\n--- jobs=1\n%s\n--- jobs=8\n%s", verdictSerial, verdictParallel)
	}
}

// TestGassyfsExecutorResultsDigest pins the executor's output itself:
// the virtual times in results.csv for a fixed template run. The
// jobs-invariance test above cannot see a change that moves every
// jobs level alike.
func TestGassyfsExecutorResultsDigest(t *testing.T) {
	const want = "f49f6560b2cb36875622bb98d1f66762a238f34ff2d974c24092b50082c1d765"
	p, _ := runTemplate(t, "gassyfs", map[string]string{
		"nodes": "1,2,4", "sources": "24", "segment_mb": "64",
	})
	csv, ok := p.ExperimentFile("exp", "results.csv")
	if !ok {
		t.Fatal("results.csv missing")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(csv)); got != want {
		t.Fatalf("results.csv sha256 = %s, want %s\n%s", got, want, csv)
	}
}
