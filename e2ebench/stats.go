package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one op's cost as seen from outside the program.
type sample struct {
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`
	Alloc float64 `json:"alloc_mb"`
}

// meter brackets one op: wall clock, process CPU (user+sys, every
// goroutine of the process) and Go heap bytes allocated.
type meter struct {
	wall  time.Time
	cpu   float64
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := meter{cpu: cpuSeconds(), alloc: ms.TotalAlloc}
	m.wall = time.Now()
	return m
}

func (m meter) stop() sample {
	wall := time.Since(m.wall).Seconds()
	cpu := cpuSeconds() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{Wall: wall, CPU: cpu, Alloc: float64(ms.TotalAlloc-m.alloc) / 1e6}
}

// cpuSeconds is the process's user+sys CPU time from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median, Q3 with the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so
// the recorded spread reads the same as one computed over run outputs.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already folded into user and nice.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the hypervisor's share of the machine's CPU time between
// two readings, in percent.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// treeBytes sums the sizes of the regular files under dir.
func treeBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
