package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"popper/internal/cluster"
	"popper/internal/gasnet"
	"popper/internal/gassyfs"
	"popper/internal/mpi"
	"popper/internal/ndarray"
	"popper/internal/plot"
	"popper/internal/sched"
	"popper/internal/table"
	"popper/internal/torpor"
	"popper/internal/weather"
	"popper/internal/workload"
)

// runGassyfs reproduces Figure gassyfs-git: compile-Git time as the
// GASNet cluster grows.
func runGassyfs(x *ExecState) error {
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
	// One shared host worker pool drives the per-rank clients of every
	// node count concurrently (jobs <= 0 means one worker per host CPU).
	// Simulated clocks, the results table and Aver verdicts are identical
	// for any jobs value — determinism is proven by the golden
	// equivalence tests in internal/workload and internal/core.
	pool := sched.NewPool(jobs)
	spec.Pool = pool
	// The seeded tree is the same for every node count: synthesize it
	// once and write it into each fresh filesystem.
	tree, err := workload.SynthTree(spec)
	if err != nil {
		return err
	}

	results := table.New("workload", "machine", "nodes", "time", "compile_time", "link_time")
	// Results is exposed before the loop so streaming validation sees
	// each node count's row as soon as it lands (Checkpoint below).
	x.Results = results
	var xs, ys []float64
	for _, n := range nodes {
		if n <= 0 {
			return fmt.Errorf("core: gassyfs: invalid node count %d", n)
		}
		c := cluster.New(x.Seed() + int64(n))
		ns, err := c.Provision(machine, n)
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
		fs, err := gassyfs.Mount(world, gassyfs.Options{CacheBlocks: cacheBlocks, Jobs: jobs})
		if err != nil {
			return err
		}
		cl, err := fs.Client(0)
		if err != nil {
			return err
		}
		if err := tree.Write(cl); err != nil {
			return err
		}
		res, err := workload.CompileOnCluster(fs, spec)
		if err != nil {
			return err
		}
		x.Ctx.Logf("nodes=%d time=%.3fs (compile=%.3f link=%.3f)", n, res.Elapsed, res.CompileTime, res.LinkTime)
		results.MustAppend(
			table.String("compile-git"), table.String(machine),
			table.Number(float64(n)), table.Number(res.Elapsed),
			table.Number(res.CompileTime), table.Number(res.LinkTime),
		)
		xs = append(xs, float64(n))
		ys = append(ys, res.Elapsed)
		if err := x.Checkpoint(); err != nil {
			return err
		}
	}

	var chart plot.LineChart
	chart.Title = "GassyFS scalability: compile Git"
	chart.XLabel, chart.YLabel = "GASNet nodes", "time (virtual s)"
	if err := chart.Add(machine, xs, ys); err != nil {
		return err
	}
	ascii, err := chart.ASCII()
	if err != nil {
		return err
	}
	svg, err := chart.SVG()
	if err != nil {
		return err
	}
	x.FigureASCII, x.FigureSVG = ascii, svg
	return nil
}

// runTorpor reproduces Figure torpor-variability: the speedup histogram
// of each machine against the base platform.
func runTorpor(x *ExecState) error {
	baseName := x.Param("base", "xeon-2005")
	machines := x.StringsParam("machines", []string{"cloudlab-c220g1"})
	ops, err := x.IntParam("ops", 100)
	if err != nil {
		return err
	}
	bucket, err := x.FloatParam("bucket", 0.1)
	if err != nil {
		return err
	}
	results := table.New("stressor", "class", "base", "machine", "speedup")
	x.Results = results
	var firstProfile *torpor.VariabilityProfile
	for i, m := range machines {
		c := cluster.New(x.Seed() + int64(i))
		baseNodes, err := c.Provision(baseName, 1)
		if err != nil {
			return err
		}
		targetNodes, err := c.Provision(m, 1)
		if err != nil {
			return err
		}
		vp, err := torpor.MeasureProfile(baseNodes[0], targetNodes[0], ops)
		if err != nil {
			return err
		}
		if firstProfile == nil {
			firstProfile = vp
		}
		for _, e := range vp.Entries {
			results.MustAppend(
				table.String(e.Stressor), table.String(string(e.Class)),
				table.String(baseName), table.String(m), table.Number(e.Speedup),
			)
		}
		lo, hi := vp.Range()
		x.Ctx.Logf("machine=%s speedup range [%.2f, %.2f] mean %.2f", m, lo, hi, vp.Mean())
		if err := x.Checkpoint(); err != nil {
			return err
		}
	}

	h, err := firstProfile.Histogram(bucket)
	if err != nil {
		return err
	}
	x.FigureASCII = h.ASCII()
	x.FigureSVG = h.SVG()
	return nil
}

// runMPIVariability reproduces the MPI noisy-neighbour study: repeated
// LULESH-proxy runs with and without background tenants.
func runMPIVariability(x *ExecState) error {
	machine := x.Param("machine", "ec2-m4")
	ranks, err := x.IntParam("ranks", 8)
	if err != nil {
		return err
	}
	runs, err := x.IntParam("runs", 10)
	if err != nil {
		return err
	}
	iters, err := x.IntParam("iterations", 5)
	if err != nil {
		return err
	}
	psize, err := x.IntParam("problem_size", 10)
	if err != nil {
		return err
	}
	if ranks <= 0 || runs <= 1 {
		return fmt.Errorf("core: mpi-comm-variability needs ranks > 0 and runs > 1")
	}
	spec := workload.DefaultLuleshSpec()
	spec.Iterations = iters
	spec.ProblemSize = psize

	results := table.New("run", "noisy", "ranks", "time", "mpi_fraction")
	x.Results = results
	for _, noisy := range []bool{false, true} {
		for r := 0; r < runs; r++ {
			c := cluster.New(x.Seed() + int64(r)*37 + boolSeed(noisy))
			ns, err := c.Provision(machine, ranks)
			if err != nil {
				return err
			}
			if noisy {
				// Tenancy varies run to run: a random placement gives a
				// few nodes a co-located tenant of random intensity; the
				// straggler then pins the whole job (collectives).
				rng := rand.New(rand.NewSource(x.Seed() + int64(r)*7919))
				victims := 1 + rng.Intn(2)
				for v := 0; v < victims; v++ {
					node := ns[rng.Intn(len(ns))]
					if err := node.SetBackgroundLoad(0.7 * rng.Float64()); err != nil {
						return err
					}
				}
			}
			cm, err := mpi.NewComm(ns, cluster.NewNetwork(0))
			if err != nil {
				return err
			}
			res, err := workload.RunLulesh(cm, spec)
			if err != nil {
				return err
			}
			results.MustAppend(
				table.Number(float64(r)), table.String(yesNo(noisy)),
				table.Number(float64(ranks)), table.Number(res.Elapsed),
				table.Number(res.MPIFraction),
			)
			if err := x.Checkpoint(); err != nil {
				return err
			}
		}
	}

	// Figure: per-run times of both conditions.
	var quietY, noisyY, runsX []float64
	for r := 0; r < results.Len(); r++ {
		t := results.MustCell(r, "time").Num
		if results.MustCell(r, "noisy").Str == "yes" {
			noisyY = append(noisyY, t)
		} else {
			quietY = append(quietY, t)
			runsX = append(runsX, results.MustCell(r, "run").Num)
		}
	}
	var chart plot.LineChart
	chart.Title = "LULESH proxy: run-to-run variability"
	chart.XLabel, chart.YLabel = "run", "time (virtual s)"
	if err := chart.Add("isolated", runsX, quietY); err != nil {
		return err
	}
	if err := chart.Add("noisy neighbours", runsX, noisyY); err != nil {
		return err
	}
	ascii, err := chart.ASCII()
	if err != nil {
		return err
	}
	svg, err := chart.SVG()
	if err != nil {
		return err
	}
	x.FigureASCII, x.FigureSVG = ascii, svg
	return nil
}

func boolSeed(b bool) int64 {
	if b {
		return 100000
	}
	return 0
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// runBWW reproduces Figure bww-airtemp: the reanalysis air-temperature
// climatology. When the experiment carries a dataset reference that was
// installed during setup, the analysis runs on the installed CSV;
// otherwise a synthetic dataset is generated from the parameters.
func runBWW(x *ExecState) error {
	dsName := x.Param("dataset", "air-temperature")
	var arr *ndarray.Array
	if csv, ok := x.Project.ExperimentFile(x.Name, "datasets/"+dsName+"/air.csv"); ok {
		a, err := weather.DecodeCSV(csv)
		if err != nil {
			return err
		}
		arr = a
		x.Ctx.Logf("analyzing installed dataset %s (%d cells)", dsName, a.Size())
	} else {
		days, err := x.IntParam("days", 72)
		if err != nil {
			return err
		}
		latStep, err := x.FloatParam("lat_step", 10)
		if err != nil {
			return err
		}
		lonStep, err := x.FloatParam("lon_step", 30)
		if err != nil {
			return err
		}
		a, err := weather.Generate(weather.ReanalysisSpec{
			Days: days, LatStep: latStep, LonStep: lonStep, NoiseK: 0.5, Seed: x.Seed(),
		})
		if err != nil {
			return err
		}
		arr = a
		x.Ctx.Logf("generated synthetic reanalysis (%d cells)", a.Size())
	}
	an, err := weather.Analyze(arr)
	if err != nil {
		return err
	}
	results := table.New("dataset", "global_mean", "amp_north", "amp_south")
	results.MustAppend(
		table.String(dsName), table.Number(an.GlobalMeanK),
		table.Number(an.AmplitudeNorth), table.Number(an.AmplitudeSouth),
	)
	x.Results = results

	h, err := an.Heatmap()
	if err != nil {
		return err
	}
	ascii, err := h.ASCII()
	if err != nil {
		return err
	}
	svg, err := h.SVG()
	if err != nil {
		return err
	}
	x.FigureASCII, x.FigureSVG = ascii, svg
	return nil
}

// runCloverleaf: strong scaling of a structured hydro stencil (the
// LULESH machinery with a shrinking per-rank domain).
func runCloverleaf(x *ExecState) error {
	machine := x.Param("machine", "probe-opteron")
	nodes, err := x.IntsParam("nodes", []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	iters, err := x.IntParam("iterations", 5)
	if err != nil {
		return err
	}
	baseSize, err := x.IntParam("problem_size", 12)
	if err != nil {
		return err
	}
	results := table.New("workload", "machine", "nodes", "time")
	x.Results = results
	var xs, ys []float64
	for _, n := range nodes {
		c := cluster.New(x.Seed() + int64(n))
		ns, err := c.Provision(machine, n)
		if err != nil {
			return err
		}
		cm, err := mpi.NewComm(ns, cluster.NewNetwork(0))
		if err != nil {
			return err
		}
		spec := workload.DefaultLuleshSpec()
		spec.Iterations = iters
		// strong scaling: total elements fixed, per-rank domain shrinks
		perRank := int(math.Round(float64(baseSize) / math.Cbrt(float64(n))))
		if perRank < 1 {
			perRank = 1
		}
		spec.ProblemSize = perRank
		res, err := workload.RunLulesh(cm, spec)
		if err != nil {
			return err
		}
		results.MustAppend(table.String("cloverleaf"), table.String(machine),
			table.Number(float64(n)), table.Number(res.Elapsed))
		xs = append(xs, float64(n))
		ys = append(ys, res.Elapsed)
		if err := x.Checkpoint(); err != nil {
			return err
		}
	}
	return lineFigure(x, "CloverLeaf proxy strong scaling", machine, xs, ys)
}

// runSpark: distributed word count — map on each node, shuffle across
// the network, reduce on the driver.
func runSpark(x *ExecState) error {
	machine := x.Param("machine", "cloudlab-c220g1")
	nodes, err := x.IntsParam("nodes", []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	wordsM, err := x.IntParam("words_millions", 64)
	if err != nil {
		return err
	}
	totalWords := float64(wordsM) * 1e6
	const bytesPerWord = 8
	const opsPerWord = 150

	results := table.New("workload", "machine", "nodes", "time")
	x.Results = results
	var xs, ys []float64
	for _, n := range nodes {
		c := cluster.New(x.Seed() + int64(n))
		ns, err := c.Provision(machine, n)
		if err != nil {
			return err
		}
		net := cluster.NewNetwork(0)
		perNode := totalWords / float64(n)
		// map phase: tokenize + count locally, parallel across cores
		for _, node := range ns {
			node.RunParallel(cluster.Work{
				CPUOps:   perNode * opsPerWord,
				MemBytes: perNode * bytesPerWord,
			}, node.Profile().Cores, 0.05)
		}
		// shuffle: every node exchanges (n-1)/n of its partial counts
		shuffleBytes := int64(perNode * bytesPerWord * float64(n-1) / float64(n) * 0.1)
		for i, src := range ns {
			if n > 1 {
				dst := ns[(i+1)%n]
				net.Send(src, dst, shuffleBytes)
			}
		}
		net.Barrier(ns)
		// reduce on the driver
		ns[0].Run(cluster.Work{CPUOps: totalWords * 2, MemBytes: totalWords})
		elapsed := cluster.MaxClock(ns)
		results.MustAppend(table.String("wordcount"), table.String(machine),
			table.Number(float64(n)), table.Number(elapsed))
		xs = append(xs, float64(n))
		ys = append(ys, elapsed)
		if err := x.Checkpoint(); err != nil {
			return err
		}
	}
	return lineFigure(x, "Word count on a standalone cluster", machine, xs, ys)
}

// runCephRados: replicated object store aggregate throughput.
func runCephRados(x *ExecState) error {
	machine := x.Param("machine", "cloudlab-c8220")
	nodes, err := x.IntsParam("nodes", []int{2, 4, 8})
	if err != nil {
		return err
	}
	objects, err := x.IntParam("objects", 64)
	if err != nil {
		return err
	}
	objMB, err := x.IntParam("object_mb", 4)
	if err != nil {
		return err
	}
	replicas, err := x.IntParam("replicas", 3)
	if err != nil {
		return err
	}
	objBytes := int64(objMB) << 20

	results := table.New("machine", "nodes", "write_mbps", "read_mbps")
	x.Results = results
	for _, n := range nodes {
		if n < 2 {
			return fmt.Errorf("core: ceph-rados needs at least 2 nodes")
		}
		if n < replicas {
			return fmt.Errorf("core: ceph-rados needs nodes >= replicas (%d < %d)", n, replicas)
		}
		c := cluster.New(x.Seed() + int64(n))
		osds, err := c.Provision(machine, n)
		if err != nil {
			return err
		}
		clients, err := c.Provision(machine, n)
		if err != nil {
			return err
		}
		net := cluster.NewNetwork(0)
		rep := replicas
		if rep > n {
			rep = n
		}
		// writes: each client stripes its share of objects over OSDs;
		// the primary pipelines one-sided replication writes.
		perClient := objects / n
		if perClient == 0 {
			perClient = 1
		}
		for ci, cl := range clients {
			for o := 0; o < perClient; o++ {
				primary := (ci + o) % n
				net.Send(cl, osds[primary], objBytes)
				for r := 1; r < rep; r++ {
					net.RDMAWrite(osds[primary], osds[(primary+r)%n], objBytes)
				}
			}
		}
		all := append(append([]*cluster.Node{}, osds...), clients...)
		writeElapsed := cluster.MaxClock(all)
		moved := float64(perClient*n) * float64(objBytes)
		writeMBps := moved / writeElapsed / 1e6

		// reads: clients fetch their objects from the primaries with
		// one-sided gets.
		readStart := net.Barrier(all)
		for ci, cl := range clients {
			for o := 0; o < perClient; o++ {
				primary := (ci + o) % n
				net.RDMARead(cl, osds[primary], objBytes)
			}
		}
		readElapsed := cluster.MaxClock(clients) - readStart
		readMBps := moved / readElapsed / 1e6
		results.MustAppend(table.String(machine), table.Number(float64(n)),
			table.Number(writeMBps), table.Number(readMBps))
		x.Ctx.Logf("nodes=%d write=%.1f MB/s read=%.1f MB/s", n, writeMBps, readMBps)
		if err := x.Checkpoint(); err != nil {
			return err
		}
	}
	ws, _ := results.Floats("write_mbps")
	ns := make([]float64, len(nodes))
	for i, n := range nodes {
		ns[i] = float64(n)
	}
	return lineFigure(x, "RADOS-style aggregate write throughput", machine, ns, ws)
}

// runZlog: shared-log append throughput vs sequencer batch size.
func runZlog(x *ExecState) error {
	machine := x.Param("machine", "cloudlab-c8220")
	storageN, err := x.IntParam("storage_nodes", 4)
	if err != nil {
		return err
	}
	batches, err := x.IntsParam("batches", []int{1, 4, 16, 64})
	if err != nil {
		return err
	}
	appends, err := x.IntParam("appends", 512)
	if err != nil {
		return err
	}
	entryKB, err := x.IntParam("entry_kb", 4)
	if err != nil {
		return err
	}
	entryBytes := int64(entryKB) << 10

	results := table.New("machine", "batch", "appends_per_sec")
	x.Results = results
	var xs, ys []float64
	for _, b := range batches {
		if b <= 0 {
			return fmt.Errorf("core: zlog batch must be positive")
		}
		c := cluster.New(x.Seed() + int64(b))
		nodes, err := c.Provision(machine, storageN+2) // sequencer + client + storage
		if err != nil {
			return err
		}
		seq, client, storage := nodes[0], nodes[1], nodes[2:]
		net := cluster.NewNetwork(0)
		start := client.Now()
		done := 0
		for done < appends {
			batch := b
			if done+batch > appends {
				batch = appends - done
			}
			// position grant: one round trip to the sequencer per batch
			net.Send(client, seq, 64)
			net.Send(seq, client, 64)
			// appends stripe over storage, pipelined per batch
			for e := 0; e < batch; e++ {
				net.Send(client, storage[(done+e)%len(storage)], entryBytes)
			}
			done += batch
		}
		elapsed := client.Now() - start
		rate := float64(appends) / elapsed
		results.MustAppend(table.String(machine), table.Number(float64(b)), table.Number(rate))
		xs = append(xs, float64(b))
		ys = append(ys, rate)
		if err := x.Checkpoint(); err != nil {
			return err
		}
	}
	return lineFigure(x, "Shared-log appends vs batch size", machine, xs, ys)
}

// runProteusTM: STM throughput and abort rate under contention.
func runProteusTM(x *ExecState) error {
	machine := x.Param("machine", "cloudlab-c220g1")
	threads, err := x.IntsParam("threads", []int{1, 2, 4, 8, 16})
	if err != nil {
		return err
	}
	ops, err := x.IntParam("ops", 200000)
	if err != nil {
		return err
	}
	conflict, err := x.FloatParam("conflict", 0.05)
	if err != nil {
		return err
	}
	if conflict < 0 || conflict >= 1 {
		return fmt.Errorf("core: proteustm conflict must be in [0,1)")
	}
	results := table.New("machine", "threads", "throughput", "abort_rate")
	x.Results = results
	var xs, ys []float64
	for _, t := range threads {
		if t <= 0 {
			return fmt.Errorf("core: proteustm threads must be positive")
		}
		c := cluster.New(x.Seed() + int64(t))
		ns, err := c.Provision(machine, 1)
		if err != nil {
			return err
		}
		node := ns[0]
		// abort probability grows with the number of concurrent peers
		abortRate := 1 - math.Pow(1-conflict, float64(t-1))
		// each committed op costs work; aborts cost retries
		retries := 1 / (1 - abortRate)
		work := cluster.Work{
			CPUOps:     float64(ops) * 400 * retries,
			RandAccess: float64(ops) * 2 * retries,
		}
		start := node.Now()
		node.RunParallel(work, t, 0.02)
		elapsed := node.Now() - start
		throughput := float64(ops) / elapsed
		results.MustAppend(table.String(machine), table.Number(float64(t)),
			table.Number(throughput), table.Number(abortRate))
		xs = append(xs, float64(t))
		ys = append(ys, throughput)
		if err := x.Checkpoint(); err != nil {
			return err
		}
	}
	return lineFigure(x, "STM throughput under contention", machine, xs, ys)
}

// runMalacology: metadata-service saturation as clients grow.
func runMalacology(x *ExecState) error {
	machine := x.Param("machine", "cloudlab-c220g1")
	clients, err := x.IntsParam("clients", []int{1, 2, 4, 8, 16, 32})
	if err != nil {
		return err
	}
	opsPerClient, err := x.IntParam("ops_per_client", 2000)
	if err != nil {
		return err
	}
	results := table.New("machine", "clients", "ops_per_sec")
	x.Results = results
	var xs, ys []float64
	for _, nc := range clients {
		if nc <= 0 {
			return fmt.Errorf("core: malacology clients must be positive")
		}
		c := cluster.New(x.Seed() + int64(nc))
		ns, err := c.Provision(machine, nc+1)
		if err != nil {
			return err
		}
		server, clis := ns[0], ns[1:]
		net := cluster.NewNetwork(0)
		totalOps := nc * opsPerClient
		// the server processes every op serially (the bottleneck)
		server.Run(cluster.Work{Syscalls: float64(totalOps) * 4, CPUOps: float64(totalOps) * 3e4})
		// each client pays its own submission overhead + round trips
		for _, cl := range clis {
			cl.Run(cluster.Work{CPUOps: float64(opsPerClient) * 1e4})
			net.Send(cl, server, int64(opsPerClient)*128)
		}
		elapsed := math.Max(cluster.MaxClock(clis), server.Now())
		rate := float64(totalOps) / elapsed
		results.MustAppend(table.String(machine), table.Number(float64(nc)), table.Number(rate))
		xs = append(xs, float64(nc))
		ys = append(ys, rate)
		if err := x.Checkpoint(); err != nil {
			return err
		}
	}
	return lineFigure(x, "Metadata service saturation", machine, xs, ys)
}

// lineFigure attaches a one-series line chart to the execution state.
func lineFigure(x *ExecState, title, series string, xs, ys []float64) error {
	var chart plot.LineChart
	chart.Title = title
	chart.XLabel, chart.YLabel = "x", "y"
	if err := chart.Add(series, xs, ys); err != nil {
		return err
	}
	ascii, err := chart.ASCII()
	if err != nil {
		return err
	}
	svg, err := chart.SVG()
	if err != nil {
		return err
	}
	x.FigureASCII, x.FigureSVG = ascii, svg
	return nil
}

// adhocGenerated reports experiment-relative paths that are run
// outputs rather than archived inputs — the ad-hoc replay must not
// feed its own previous results back into the provenance table.
func adhocGenerated(rel string) bool {
	switch rel {
	case "results.csv", "figure.txt", "figure.svg", FailuresFile:
		return true
	}
	return strings.HasPrefix(rel, "sweep/")
}

// runAdhoc is the executable binding behind Popperized ad-hoc
// experiments: every archived artifact (scripts, spreadsheets, the
// convention files themselves) is replayed on one simulated node —
// checksum-and-archive work charged per byte, per trial — and recorded
// in a provenance table, so a freshly wrapped experiment runs end to
// end and its skeleton validations hold before the author codifies the
// real findings.
func runAdhoc(x *ExecState) error {
	machine := x.Param("machine", "cloudlab-c220g1")
	trials, err := x.IntParam("trials", 3)
	if err != nil {
		return err
	}
	if trials <= 0 {
		return fmt.Errorf("core: adhoc trials must be positive")
	}
	prefix := expPath(x.Name, "")
	var paths []string
	for path := range x.Project.Files {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		if rel := strings.TrimPrefix(path, prefix); !adhocGenerated(rel) {
			paths = append(paths, rel)
		}
	}
	sort.Strings(paths)
	c := cluster.New(x.Seed())
	ns, err := c.Provision(machine, 1)
	if err != nil {
		return err
	}
	node := ns[0]
	results := table.New("file", "bytes", "time")
	x.Results = results
	var xs, ys []float64
	for i, rel := range paths {
		content := x.Project.Files[prefix+rel]
		start := node.Now()
		node.Run(cluster.Work{
			CPUOps:   float64(trials) * (1e5 + 50*float64(len(content))),
			Syscalls: float64(trials),
		})
		elapsed := node.Now() - start
		results.MustAppend(table.String(rel), table.Number(float64(len(content))), table.Number(elapsed))
		xs, ys = append(xs, float64(i+1)), append(ys, elapsed)
		if err := x.Checkpoint(); err != nil {
			return err
		}
	}
	return lineFigure(x, "Ad-hoc artifact replay", machine, xs, ys)
}
