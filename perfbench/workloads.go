package main

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/workload"
)

// A workload builds one fresh simulation through the public constructors.
// The returned harness has its issuers started and its clock at zero.
type workloadSpec struct {
	name  string
	build func(seed int64, traced bool) *harness
}

var workloads = []workloadSpec{
	{"clos_write", buildClosWrite},
	{"lossy_rw", buildLossyRW},
	{"incast_read", buildIncastRead},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have clos_write, lossy_rw, incast_read)", name)
}

// harness is one built workload: the simulator and fabric the benchmark
// drives, the ULP issuers, and the counters the output checks read.
type harness struct {
	s      *sim.Simulator
	net    *netsim.Network
	nodes  []*core.Node
	cl     *core.Cluster
	window sim.Time
	// depth is each closed loop's window; 0 marks the open loop, whose
	// in-flight count has no fixed cap.
	depth int
	loops []*loop

	// stopped turns every issuer idle; set after the timed window so the
	// simulator can drain.
	stopped bool
	// lat holds the virtual latency (ns) of each op that completed OK.
	lat []int64

	// traced times every QP.Write/QP.Read call on the host clock.
	traced     bool
	issueNs    int64
	issueCalls int64

	// Host time of the three set-up phases.
	topologyDur, nodesDur, connectDur time.Duration
}

// loop counts the ops of one issuer.
type loop struct {
	issued, ok, failed uint64
}

func (l *loop) inflight() uint64 { return l.issued - l.ok - l.failed }

// ulpOp issues one RDMA op whose completion goes to done.
type ulpOp func(done func(rdma.Completion)) error

// issue makes one ULP call, timing it in traced runs.
func (h *harness) issue(op ulpOp, done func(rdma.Completion)) error {
	if !h.traced {
		return op(done)
	}
	t := time.Now()
	err := op(done)
	h.issueNs += int64(time.Since(t))
	h.issueCalls++
	return err
}

// complete returns the completion callback of an op issued at due.
func (h *harness) complete(l *loop, due sim.Time, next func()) func(rdma.Completion) {
	return func(c rdma.Completion) {
		if c.Err != nil {
			l.failed++
		} else {
			l.ok++
			h.lat = append(h.lat, int64(h.s.Now()-due))
		}
		if next != nil {
			next()
		}
	}
}

// startClosedLoop runs a closed loop of depth ops on s, each made by op.
func (h *harness) startClosedLoop(s *sim.Simulator, depth int, op ulpOp) {
	l := &loop{}
	h.loops = append(h.loops, l)
	workload.NewClosedLoop(s, depth, 1<<30, func(opDone func()) bool {
		if h.stopped {
			// A stopped loop takes its free window slots without
			// issuing, so it schedules nothing more.
			return true
		}
		l.issued++
		if err := h.issue(op, h.complete(l, s.Now(), opDone)); err != nil {
			l.failed++
			return false
		}
		return true
	}, nil).Start()
}

// clos_write is figScale's 1024-host tier: a 3-stage Clos of 16 racks of
// 64 hosts and 16 spines with ECMP and no loss, where each first-half host
// keeps 4 writes of 4 KiB in flight to its mirror host across the spines.
// It loads the scheduler, the fabric and routing, and leaves loss recovery,
// the connection cache and congestion control nearly idle.
func buildClosWrite(seed int64, traced bool) *harness {
	const racks, hostsPerRack, spines = 16, 64, 16
	const opBytes, depth = 4 << 10, 4
	h := &harness{window: sim.Time(400 * time.Microsecond), depth: depth, traced: traced}
	t0 := time.Now()
	h.s = sim.New(seed)
	hostLink := netsim.LinkConfig{GbpsRate: 100, PropDelay: 500 * time.Nanosecond}
	fabricLink := netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * time.Microsecond}
	topo := netsim.Clos(h.s, racks, hostsPerRack, spines, hostLink, fabricLink)
	h.net = topo.Net
	t1 := time.Now()
	h.cl = core.NewCluster(h.s)
	for _, host := range topo.Hosts {
		h.nodes = append(h.nodes, h.cl.AddNode(host, core.DefaultNodeConfig()))
	}
	t2 := time.Now()
	// Connections, QPs and loop starts interleave exactly as figScale
	// builds them, so seed 30 reproduces its table row event for event.
	half := len(h.nodes) / 2
	for i := 0; i < half; i++ {
		epA, epB := h.cl.Connect(h.nodes[i], h.nodes[i+half], core.DefaultConnConfig())
		qa := rdma.NewQP(epA, rdma.Config{})
		rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
		h.startClosedLoop(epA.Sim(), depth, func(done func(rdma.Completion)) error {
			return qa.Write(0, 0, nil, opBytes, done)
		})
	}
	h.topologyDur, h.nodesDur, h.connectDur = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return h
}

// lossy_rw is one 200 Gb/s path between two hosts with 1% random drop and
// light reordering in both directions. One QP keeps 48 writes of 8 KiB in
// flight and another 48 reads of 8 KiB, so loss recovery and the
// transaction layer's push and pull paths do nearly all of the work.
func buildLossyRW(seed int64, traced bool) *harness {
	const opBytes, depth = 8 << 10, 48
	h := &harness{window: sim.Time(10 * time.Millisecond), depth: depth, traced: traced}
	t0 := time.Now()
	h.s = sim.New(seed)
	topo, fwd := netsim.PointToPoint(h.s, netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond})
	rev := topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]
	for _, p := range []*netsim.Port{fwd, rev} {
		p.SetDropProb(0.01)
		p.SetReorder(0.02, 3*time.Microsecond)
	}
	h.net = topo.Net
	t1 := time.Now()
	h.cl = core.NewCluster(h.s)
	a := h.cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := h.cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	h.nodes = []*core.Node{a, b}
	t2 := time.Now()
	wA, wB := h.cl.Connect(a, b, core.DefaultConnConfig())
	rA, rB := h.cl.Connect(a, b, core.DefaultConnConfig())
	wq, rq := rdma.NewQP(wA, rdma.Config{}), rdma.NewQP(rA, rdma.Config{})
	rdma.NewQP(wB, rdma.Config{}).RegisterMemoryLen(1 << 40)
	rdma.NewQP(rB, rdma.Config{}).RegisterMemoryLen(1 << 40)
	h.startClosedLoop(h.s, depth, func(done func(rdma.Completion)) error {
		return wq.Write(0, 0, nil, opBytes, done)
	})
	h.startClosedLoop(h.s, depth, func(done func(rdma.Completion)) error {
		return rq.Read(0, 0, opBytes, done)
	})
	h.topologyDur, h.nodesDur, h.connectDur = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return h
}

// incast_read is one client on a 200 Gb/s star reading 64 KiB from 256
// servers over 1024 connections, with the client's first-level connection
// cache at 256 entries. Reads arrive open-loop (Poisson) at 90% of the
// client link and each picks a connection at random, so congestion
// control, connection-cache misses, pull resources and the one egress
// queue toward the client are loaded while loss recovery and routing idle.
func buildIncastRead(seed int64, traced bool) *harness {
	const servers, conns, opBytes = 256, 1024, 64 << 10
	const load = 0.9
	const linkGbps = 200
	h := &harness{window: sim.Time(2 * time.Millisecond), traced: traced}
	t0 := time.Now()
	h.s = sim.New(seed)
	topo := netsim.Star(h.s, servers+1, netsim.LinkConfig{GbpsRate: linkGbps, PropDelay: time.Microsecond})
	h.net = topo.Net
	t1 := time.Now()
	h.cl = core.NewCluster(h.s)
	clientCfg := core.DefaultNodeConfig()
	clientCfg.NIC.CacheSize = 256
	client := h.cl.AddNode(topo.Hosts[0], clientCfg)
	h.nodes = []*core.Node{client}
	for _, host := range topo.Hosts[1:] {
		h.nodes = append(h.nodes, h.cl.AddNode(host, core.DefaultNodeConfig()))
	}
	t2 := time.Now()
	reads := make([]ulpOp, conns)
	for c := range reads {
		epC, epS := h.cl.Connect(client, h.nodes[1+c%servers], core.DefaultConnConfig())
		qp := rdma.NewQP(epC, rdma.Config{})
		rdma.NewQP(epS, rdma.Config{}).RegisterMemoryLen(1 << 40)
		reads[c] = func(done func(rdma.Completion)) error { return qp.Read(0, 0, opBytes, done) }
	}
	l := &loop{}
	h.loops = []*loop{l}
	rate := load * linkGbps * 1e9 / 8 / opBytes
	// Twice the expected arrivals in the window: the generator cannot be
	// cancelled, so after the stop its remaining arrivals are no-ops that
	// end well within the drain.
	total := int(2 * rate * h.window.Seconds())
	rng := h.s.Rand()
	workload.NewPoisson(h.s, rng, rate, total, func() {
		if h.stopped {
			return
		}
		op := reads[rng.Intn(conns)]
		l.issued++
		if err := h.issue(op, h.complete(l, h.s.Now(), nil)); err != nil {
			l.failed++
		}
	}).Start()
	h.topologyDur, h.nodesDur, h.connectDur = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return h
}
