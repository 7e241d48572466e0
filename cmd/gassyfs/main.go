// Command gassyfs runs the GassyFS scalability experiment (the paper's
// Figure gassyfs-git) standalone: it compiles a synthetic Git tree on
// the in-memory distributed filesystem over a growing GASNet cluster and
// prints the results table, the figure, and the Aver verdict.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"popper/internal/aver"
	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/gassyfs"
	"popper/internal/plot"
	"popper/internal/table"
	"popper/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gassyfs:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gassyfs", flag.ContinueOnError)
	machine := fs.String("machine", "cloudlab-c220g1", "machine profile")
	nodesSpec := fs.String("nodes", "1,2,4,8,16", "comma-separated cluster sizes")
	sources := fs.Int("sources", 96, "translation units in the synthetic Git tree")
	segMB := fs.Int64("segment-mb", 256, "GASNet segment size per node (MiB)")
	seed := fs.Int64("seed", 42, "simulation seed")
	local := fs.Bool("local-first", false, "use local-first block placement instead of round robin")
	jobs := fs.Int("jobs", 0, "host goroutines driving clients concurrently (<=0 = all CPUs, 1 = serial; results identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var nodes []int
	for _, part := range strings.Split(*nodesSpec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -nodes element %q", part)
		}
		nodes = append(nodes, n)
	}

	spec := workload.GitCompileSpec()
	spec.Sources = *sources
	spec.Seed = *seed
	spec.HostJobs = *jobs
	policy := gassyfs.AllocRoundRobin
	if *local {
		policy = gassyfs.AllocLocalFirst
	}

	tree, err := workload.SynthTree(spec)
	if err != nil {
		return err
	}

	results := table.New("workload", "machine", "nodes", "time")
	var xs, ys []float64
	for _, n := range nodes {
		c := cluster.New(*seed + int64(n))
		ns, err := c.Provision(*machine, n)
		if err != nil {
			return err
		}
		world, err := gasnet.New(ns, cluster.NewNetwork(0), nil)
		if err != nil {
			return err
		}
		if err := world.AttachAll(*segMB << 20); err != nil {
			return err
		}
		fsys, err := gassyfs.Mount(world, gassyfs.Options{Policy: policy})
		if err != nil {
			return err
		}
		cl, err := fsys.Client(0)
		if err != nil {
			return err
		}
		if err := tree.Write(cl); err != nil {
			return err
		}
		res, err := workload.CompileOnCluster(fsys, spec)
		if err != nil {
			return err
		}
		results.MustAppend(table.String("compile-git"), table.String(*machine),
			table.Number(float64(n)), table.Number(res.Elapsed))
		xs = append(xs, float64(n))
		ys = append(ys, res.Elapsed)
		fmt.Printf("nodes=%-3d time=%8.3fs  (compile %7.3fs, link %6.3fs, speedup %.2fx)\n",
			n, res.Elapsed, res.CompileTime, res.LinkTime, ys[0]/res.Elapsed)
	}

	fmt.Println()
	var chart plot.LineChart
	chart.Title = "GassyFS scalability: compile Git (" + *machine + ")"
	chart.XLabel, chart.YLabel = "GASNet nodes", "time (virtual s)"
	if err := chart.Add(*machine, xs, ys); err != nil {
		return err
	}
	ascii, err := chart.ASCII()
	if err != nil {
		return err
	}
	fmt.Print(ascii)

	// The paper's exact assertion (Listing lst:aver-assertion).
	src := "when workload=* and machine=* expect sublinear(nodes,time)"
	verdicts, err := aver.NewEvaluator().CheckAll(src, results)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(aver.FormatResults(verdicts))
	if !aver.AllPassed(verdicts) {
		return fmt.Errorf("scalability assertion failed")
	}
	return nil
}
