package main

import (
	"fmt"

	"popper/internal/cluster"
	"popper/internal/core"
	"popper/internal/gasnet"
	"popper/internal/gassyfs"
	"popper/internal/pipeline"
	"popper/internal/sched"
	"popper/internal/store"
	"popper/internal/workload"
)

// replayStats is the executor substrate's share of a cold sweep, split
// by layer. CPU seconds are process user+sys, so the layers add up
// against core.sweep_cpu_s; wall seconds are kept for the record.
type replayStats struct {
	Configs    int     `json:"configs"`
	Steps      int     `json:"steps"`
	AttachCPU  float64 `json:"attach_cpu_s"`
	MountCPU   float64 `json:"mount_cpu_s"`
	GenCPU     float64 `json:"generate_cpu_s"`
	GenAlloc   float64 `json:"generate_alloc_mb"`
	CompCPU    float64 `json:"compile_cpu_s"`
	CompAlloc  float64 `json:"compile_alloc_mb"`
	Wall       float64 `json:"wall_s"`
	TotalCPU   float64 `json:"cpu_s"`
	TotalAlloc float64 `json:"alloc_mb"`
}

// replayExecutor re-runs, one configuration at a time, the executor
// steps the gassyfs binding performs for every configuration of the
// repository's sweep: for each node count, provision the simulated
// cluster, attach the gasnet world, mount gassyfs, generate the source
// tree and compile it. It reads the repository only to learn the
// parameters; nothing is written back.
func replayExecutor(dir string) (replayStats, error) {
	var rs replayStats
	files, err := store.Open(dir).Load()
	if err != nil {
		return rs, err
	}
	p, err := core.Load(files)
	if err != nil {
		return rs, err
	}
	raw, ok := p.ExperimentFile(expName, core.SweepFile)
	if !ok {
		return rs, fmt.Errorf("experiment %s has no %s", expName, core.SweepFile)
	}
	configs, err := core.ParseSweep(string(raw))
	if err != nil {
		return rs, err
	}
	all := startMeter()
	for _, overrides := range configs {
		params, err := p.Params(expName)
		if err != nil {
			return rs, err
		}
		for k, v := range overrides {
			params[k] = v
		}
		if err := replayConfig(&rs, params); err != nil {
			return rs, err
		}
		rs.Configs++
	}
	total := all.stop()
	rs.Wall, rs.TotalCPU, rs.TotalAlloc = total.Wall, total.CPU, total.Alloc
	return rs, nil
}

// replayConfig mirrors the gassyfs binding's parameter handling and
// per-node-count loop for one configuration.
func replayConfig(rs *replayStats, params map[string]string) error {
	x := &core.ExecState{Ctx: &pipeline.Context{Params: params}, Env: &core.Env{Seed: 1}}
	machine := x.Param("machine", "cloudlab-c220g1")
	nodes, err := x.IntsParam("nodes", []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	sources, err := x.IntParam("sources", 96)
	if err != nil {
		return err
	}
	segMB, err := x.IntParam("segment_mb", 256)
	if err != nil {
		return err
	}
	cacheBlocks, err := x.IntParam("cache_blocks", 0)
	if err != nil {
		return err
	}
	jobs, err := x.IntParam("jobs", 0)
	if err != nil {
		return err
	}
	spec := workload.GitCompileSpec()
	spec.Sources = sources
	spec.Seed = x.Seed()
	spec.Pool = sched.NewPool(jobs)
	for _, n := range nodes {
		m := startMeter()
		ns, err := cluster.New(x.Seed()+int64(n)).Provision(machine, n)
		if err != nil {
			return err
		}
		world, err := gasnet.New(ns, cluster.NewNetwork(0), nil)
		if err != nil {
			return err
		}
		if err := world.AttachAll(int64(segMB) << 20); err != nil {
			return err
		}
		rs.AttachCPU += m.stop().CPU

		m = startMeter()
		fs, err := gassyfs.Mount(world, gassyfs.Options{CacheBlocks: cacheBlocks, Jobs: jobs})
		if err != nil {
			return err
		}
		cl, err := fs.Client(0)
		if err != nil {
			return err
		}
		rs.MountCPU += m.stop().CPU

		m = startMeter()
		if err := workload.GenerateTree(cl, spec); err != nil {
			return err
		}
		s := m.stop()
		rs.GenCPU += s.CPU
		rs.GenAlloc += s.Alloc

		m = startMeter()
		if _, err := workload.CompileOnCluster(fs, spec); err != nil {
			return err
		}
		s = m.stop()
		rs.CompCPU += s.CPU
		rs.CompAlloc += s.Alloc
		rs.Steps++
	}
	return nil
}
