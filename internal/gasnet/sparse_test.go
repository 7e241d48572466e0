package gasnet

import (
	"bytes"
	"testing"
)

// materialized reports whether chunk c of rank's segment holds a buffer.
func materialized(w *World, rank, c int) bool {
	ch := &w.segments[rank].chunks[c]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.data != nil
}

func TestZeroPutLeavesChunkSparse(t *testing.T) {
	w, _ := world(t, 2, 4*chunkSize)
	zeros := make([]byte, chunkSize+100)
	if _, err := w.Putv(0, []Addr{{Rank: 1, Offset: 50}}, [][]byte{zeros}); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if materialized(w, 1, c) {
			t.Fatalf("chunk %d materialized by an all-zero put", c)
		}
	}
	got := bytes.Repeat([]byte{0xff}, len(zeros))
	if err := w.GetInto(0, Addr{Rank: 1, Offset: 50}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, zeros) {
		t.Fatal("sparse chunk must read back as zeros")
	}
}

func TestZeroPutClearsMaterializedBytes(t *testing.T) {
	w, _ := world(t, 1, 2*chunkSize)
	at := Addr{Rank: 0, Offset: 1000}
	if err := w.Put(0, at, bytes.Repeat([]byte("data"), 512)); err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 2048)
	if _, err := w.Putv(0, []Addr{at}, [][]byte{zeros}); err != nil {
		t.Fatal(err)
	}
	got, err := w.Get(0, at, int64(len(zeros)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, zeros) {
		t.Fatal("zeros written over data must clear it")
	}
	if !materialized(w, 0, 0) {
		t.Fatal("a chunk holding data must stay materialized")
	}
}

func TestPutvAcrossMaterializedAndSparseChunks(t *testing.T) {
	w, _ := world(t, 1, 4*chunkSize)
	// Chunk 0 holds data; chunk 1 has never been written.
	if err := w.Put(0, Addr{Rank: 0, Offset: 0}, bytes.Repeat([]byte{7}, int(chunkSize))); err != nil {
		t.Fatal(err)
	}
	// One vectored put: a zero span crossing from chunk 0 into chunk 1,
	// then a non-zero span inside chunk 2.
	start := chunkSize - 300
	zeros := make([]byte, 600)
	payload := []byte("tail bytes")
	addrs := []Addr{{Rank: 0, Offset: start}, {Rank: 0, Offset: 2*chunkSize + 10}}
	if _, err := w.Putv(0, addrs, [][]byte{zeros, payload}); err != nil {
		t.Fatal(err)
	}
	if !materialized(w, 0, 0) || materialized(w, 0, 1) || !materialized(w, 0, 2) {
		t.Fatalf("chunk states = %v %v %v, want true false true",
			materialized(w, 0, 0), materialized(w, 0, 1), materialized(w, 0, 2))
	}
	got, err := w.Get(0, Addr{Rank: 0, Offset: start - 4}, int64(len(zeros))+8)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{7, 7, 7, 7}, zeros...), 0, 0, 0, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("zero span across a materialized and a sparse chunk read back wrong")
	}
	tail, err := w.Get(0, addrs[1], int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, payload) {
		t.Fatalf("payload = %q, want %q", tail, payload)
	}
}
