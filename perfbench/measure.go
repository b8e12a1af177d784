package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"falcon/internal/chaos"
	"falcon/internal/sim"
)

// minRuns is the fewest timed runs of each kind a set makes, however
// small the host-time budget.
const minRuns = 3

// seedsPerSet is how many seeds the runs of one set cycle through. The
// host time of one window differs by up to 4x between seeds on
// incast_read, so a set reports medians over many seeds rather than
// the cost of one. A 30-second set of incast_read makes about 55 runs,
// so it cycles through nearly as many distinct seeds.
const seedsPerSet = 64

// subSeed is the seed of run k of a set: the set's own seed for k = 0,
// then seeds mixed from it (splitmix64), so sets with neighbouring seeds
// share none.
func subSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return int64(splitmix(uint64(seed)*0x9e3779b97f4a7c15+uint64(k)) >> 1)
}

// peakSlices is how many RunUntil slices a traced run splits its window
// into to sample the scheduler's pending-event count. It is a multiple
// of refSlices.
const peakSlices = 200

// counts are the exact simulated outputs of one run at the end of its
// window. They repeat exactly for a seed, so every run of one seed must
// give the same digest.
type counts struct {
	Issued, OK, Failed, InFlight uint64
	Events                       uint64
	Frames, Drops                uint64
	MaxQueueBytes                int
	DataPkts, Retx, Acks         uint64
	TLOK, TLErr                  uint64
	Backpressured, RNRRetries    uint64
	CacheHits, CacheMisses       uint64
	WaitNs                       int64
	Samples                      int
	P50Ns, P99Ns                 int64
}

// run is one build, timed window and drain of a workload.
type run struct {
	// ref is the host time of the reference pass interleaved with the
	// window (see refkernel.go).
	ref                      time.Duration
	setup, window            time.Duration
	topology, nodes, connect time.Duration
	counts                   counts
	failed                   uint64 // after the drain
	liveHeap                 uint64
	allocs, gcCycles         uint64
	peakPending              int
	issueNs, issueCalls      int64
	cpuByLayer               map[string]int64
}

// set is every run of one benchmark invocation.
type set struct {
	ref              *refKernel
	window           sim.Time
	untraced, traced []run
	// digests holds each seed's digest; every run of that seed must
	// match it. digest is the set's own seed's.
	digests           map[int64]string
	digest            string
	errs              []string
	attempted, failed uint64
}

// runSet makes one unmeasured warm-up run, then timed runs until budget
// has passed, cycling through seedsPerSet seeds. The first timed run and
// the warm-up use seed itself. With trace, each seed's untraced run is
// followed by a traced run of the same seed.
func runSet(w workloadSpec, seed int64, budget time.Duration, trace bool) (*set, error) {
	start := time.Now()
	ref, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	st := &set{ref: ref, digests: map[int64]string{}}
	defer ref.unmap()
	if _, err := st.once(w, seed, false); err != nil {
		return nil, err
	}
	st.digest = st.digests[seed]
	for i := 0; ; i++ {
		s := subSeed(seed, i%seedsPerSet)
		r, err := st.once(w, s, false)
		if err != nil {
			return nil, err
		}
		st.untraced = append(st.untraced, r)
		if trace {
			r, err := st.once(w, s, true)
			if err != nil {
				return nil, err
			}
			st.traced = append(st.traced, r)
		}
		if len(st.untraced) >= minRuns && time.Since(start) >= budget {
			return st, nil
		}
	}
}

// once builds the workload, simulates its window, checks the outputs,
// then stops the issuers and drains the simulator outside the timed part.
func (st *set) once(w workloadSpec, seed int64, traced bool) (run, error) {
	// Start from a heap returned to the OS, so set-up always pays the
	// page faults a fresh process pays rather than however many the
	// background scavenger left since the previous run.
	debug.FreeOSMemory()
	t0 := time.Now()
	h := w.build(seed, traced)
	r := run{setup: time.Since(t0), topology: h.topologyDur, nodes: h.nodesDur, connect: h.connectDur}
	st.window = h.window

	var prof bytes.Buffer
	m0 := readRuntime()
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return run{}, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	// The window runs in slices, each followed by its share of one
	// reference pass, so the pass sees the same host as the window.
	slices := sim.Time(refSlices)
	if traced {
		slices = peakSlices
	}
	st.ref.reset()
	for i := sim.Time(1); i <= slices; i++ {
		t := time.Now()
		h.s.RunUntil(h.window * i / slices)
		r.window += time.Since(t)
		if traced {
			r.peakPending = max(r.peakPending, h.s.Pending())
		}
		if i%(slices/refSlices) == 0 {
			r.ref += st.ref.steps(refSteps / refSlices)
		}
	}
	if traced {
		pprof.StopCPUProfile()
	}
	m1 := readRuntime()
	r.allocs, r.gcCycles = m1.allocs-m0.allocs, m1.cycles-m0.cycles
	r.issueNs, r.issueCalls = h.issueNs, h.issueCalls
	if traced {
		byLayer, err := cpuByLayer(prof.Bytes())
		if err != nil {
			return run{}, err
		}
		r.cpuByLayer = byLayer
	}

	r.counts = h.counts()
	errs := h.checkWindow()
	runtime.GC()
	r.liveHeap = readRuntime().live

	h.stopped = true
	h.s.Run()
	errs = append(errs, h.checkDrained()...)
	ledger := chaos.Audit(h.net)
	if !ledger.Balanced() {
		errs = append(errs, "frame ledger unbalanced: "+ledger.String())
	}
	for _, l := range h.loops {
		r.failed += l.failed
	}
	hash := fnv.New64a()
	fmt.Fprintf(hash, "%+v %s", r.counts, ledger)
	digest := fmt.Sprintf("%016x", hash.Sum64())
	if d, ok := st.digests[seed]; !ok {
		st.digests[seed] = digest
	} else if digest != d {
		errs = append(errs, fmt.Sprintf("seed %d: digest %s differs from an earlier run's %s", seed, digest, d))
	}
	st.errs = append(st.errs, errs...)
	st.attempted += r.counts.Issued
	st.failed += r.failed
	return r, nil
}

// counts reads the exact outputs at the end of the window.
func (h *harness) counts() counts {
	var c counts
	for _, l := range h.loops {
		c.Issued += l.issued
		c.OK += l.ok
		c.Failed += l.failed
	}
	c.InFlight = c.Issued - c.OK - c.Failed
	c.Events = h.s.Processed()
	for _, p := range h.net.Ports() {
		ps := p.Stats
		c.Frames += ps.TxFrames
		c.Drops += ps.QueueDrops + ps.RandomDrops + ps.DownDrops + ps.CorruptDrops
		c.MaxQueueBytes = max(c.MaxQueueBytes, ps.MaxQueueBytes)
	}
	for _, ep := range h.cl.Endpoints() {
		ps, ts := ep.PDL().Stats, ep.TL().Stats
		c.DataPkts += ps.DataSent + ps.DataRetransmits
		c.Retx += ps.DataRetransmits
		c.Acks += ps.AcksSent
		c.TLOK += ts.CompletedOK
		c.TLErr += ts.CompletedError
		c.Backpressured += ts.Backpressured
		c.RNRRetries += ts.RNRRetries
	}
	for _, n := range h.nodes {
		ns := n.NIC().Stats
		c.CacheHits += ns.CacheHits
		c.CacheMisses += ns.L2Hits + ns.CacheMisses
		c.WaitNs += int64(ns.GlobalWait + ns.ConnWait)
	}
	lat := append([]int64(nil), h.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	c.Samples = len(lat)
	c.P50Ns, c.P99Ns = rank(lat, 0.50), rank(lat, 0.99)
	return c
}

// rank is the nearest-rank percentile of sorted values.
func rank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// checkWindow checks that every issued op completed OK, failed, or is in
// flight at the end of the window, within its closed loop's depth.
func (h *harness) checkWindow() []string {
	var errs []string
	var ok uint64
	for i, l := range h.loops {
		if l.ok+l.failed > l.issued {
			errs = append(errs, fmt.Sprintf("issuer %d: %d ops ended but only %d issued", i, l.ok+l.failed, l.issued))
			continue
		}
		if h.depth > 0 && l.inflight() > uint64(h.depth) {
			errs = append(errs, fmt.Sprintf("issuer %d: %d ops in flight, above its depth %d", i, l.inflight(), h.depth))
		}
		ok += l.ok
	}
	if ok == 0 {
		errs = append(errs, "no op completed in the window")
	}
	return errs
}

// checkDrained checks that the drained simulator left nothing pending and
// that every op issued in the window has ended.
func (h *harness) checkDrained() []string {
	var errs []string
	if n := h.s.Pending(); n != 0 {
		errs = append(errs, fmt.Sprintf("%d events still pending after the drain", n))
	}
	for i, l := range h.loops {
		if l.inflight() != 0 {
			errs = append(errs, fmt.Sprintf("issuer %d: %d ops never ended", i, l.inflight()))
		}
	}
	return errs
}

// rtSample is a snapshot of the Go runtime's own counters.
type rtSample struct {
	allocs, cycles, live uint64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	return rtSample{allocs: u(0) + u(1), cycles: u(2), live: u(3)}
}

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

// medianOf is the median of f over runs.
func medianOf(runs []run, f func(run) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// refUnits is d in reference units: seconds on a host where the run's
// reference pass r.ref takes refSeconds.
func (r run) refUnits(d time.Duration) float64 {
	return d.Seconds() / r.ref.Seconds() * refSeconds
}

// endToEnd is the untraced runs' medians, with host times in reference
// units (see refkernel.go).
func (st *set) endToEnd() []metric {
	u := st.untraced
	return []metric{
		{"setup_s", medianOf(u, func(r run) float64 { return r.refUnits(r.setup) }), "s"},
		{"run_s", medianOf(u, func(r run) float64 { return r.refUnits(r.window) }), "s"},
		{"events_per_s", medianOf(u, func(r run) float64 { return float64(r.counts.Events) / r.refUnits(r.window) }), "1/s"},
		{"ops_per_s", medianOf(u, func(r run) float64 { return float64(r.counts.OK) / r.refUnits(r.window) }), "1/s"},
		{"live_heap_mb", medianOf(u, func(r run) float64 { return float64(r.liveHeap) / 1e6 }), "MB"},
	}
}

// perLayer is the exact counts of the set's own seed, the runtime's
// counters over the untraced runs, and the traced runs' profile.
func (st *set) perLayer() []metric {
	c := st.untraced[0].counts
	ms := []metric{
		{"sim.events", float64(c.Events), "count"},
		{"netsim.frames", float64(c.Frames), "count"},
		{"netsim.drops", float64(c.Drops), "count"},
		{"netsim.max_queue_kb", float64(c.MaxQueueBytes) / 1024, "KiB"},
		{"pdl.data_pkts", float64(c.DataPkts), "count"},
		{"pdl.retx", float64(c.Retx), "count"},
		{"pdl.retx_frac", ratio(float64(c.Retx), float64(c.DataPkts)), "frac"},
		{"pdl.acks", float64(c.Acks), "count"},
		{"tl.ops_ok", float64(c.TLOK), "count"},
		{"tl.ops_err", float64(c.TLErr), "count"},
		{"tl.backpressured", float64(c.Backpressured), "count"},
		{"tl.rnr_retries", float64(c.RNRRetries), "count"},
		{"nic.cache_misses", float64(c.CacheMisses), "count"},
		{"nic.cache_hit_frac", ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses)), "frac"},
		{"nic.wait_us", float64(c.WaitNs) / 1e3, "us"},
		{"rdma.sim_p50_us", float64(c.P50Ns) / 1e3, "us"},
		{"rdma.sim_p99_us", float64(c.P99Ns) / 1e3, "us"},
		{"rdma.samples", float64(c.Samples), "count"},
		{"gc.allocs_per_event", medianOf(st.untraced, func(r run) float64 { return ratio(float64(r.allocs), float64(r.counts.Events)) }), "allocs/event"},
		{"gc.cycles", medianOf(st.untraced, func(r run) float64 { return float64(r.gcCycles) }), "count"},
		{"ref.kernel_s", medianOf(st.untraced, func(r run) float64 { return r.ref.Seconds() }), "s"},
		{"ref.raw_run_s", medianOf(st.untraced, func(r run) float64 { return r.window.Seconds() }), "s"},
	}

	var total float64
	byLayer := map[string]float64{}
	var issueNs, issueCalls int64
	for _, r := range st.traced {
		for l, ns := range r.cpuByLayer {
			if l == refLayer {
				continue
			}
			byLayer[l] += float64(ns)
			total += float64(ns)
		}
		issueNs += r.issueNs
		issueCalls += r.issueCalls
	}
	for _, l := range cpuLayers {
		ms = append(ms, metric{l + ".cpu_frac", ratio(byLayer[l], total), "frac"})
	}

	all := append(append([]run(nil), st.untraced...), st.traced...)
	ms = append(ms,
		metric{"sim.peak_pending", float64(st.traced[0].peakPending), "count"},
		metric{"rdma.issue_ns", ratio(float64(issueNs), float64(issueCalls)), "ns"},
		metric{"setup.topology_s", medianOf(all, func(r run) float64 { return r.refUnits(r.topology) }), "s"},
		metric{"setup.nodes_s", medianOf(all, func(r run) float64 { return r.refUnits(r.nodes) }), "s"},
		metric{"setup.connect_s", medianOf(all, func(r run) float64 { return r.refUnits(r.connect) }), "s"},
		// Raw host times: the profiler slows the reference pass too, so
		// reference units would hide its cost.
		metric{"trace.overhead_frac", ratio(
			medianOf(st.traced, func(r run) float64 { return r.window.Seconds() }),
			medianOf(st.untraced, func(r run) float64 { return r.window.Seconds() })) - 1, "frac"},
	)
	return ms
}
