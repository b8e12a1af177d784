package main

import "testing"

// clos_write at seed 30 is figScale's 1024-host tier, so its window must
// reproduce that row of the committed figScale table.
func TestClosWriteReproducesFigScaleRow(t *testing.T) {
	h := buildClosWrite(30, false)
	h.s.RunUntil(h.window)
	c := h.counts()
	if c.OK != 71680 || c.Events != 1545480 {
		t.Fatalf("clos_write seed 30: %d ops, %d sim events; figScale's 1024-host row has 71680 ops, 1545480 events", c.OK, c.Events)
	}
}

// Each workload must load the layers it was chosen for.
func TestWorkloadsStressTheirLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload under the profiler")
	}
	got := map[string]map[string]float64{}
	for _, w := range workloads {
		st, err := runSet(w, 30, 0, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, e := range st.errs {
			t.Errorf("%s: %s", w.name, e)
		}
		got[w.name] = map[string]float64{}
		for _, m := range st.perLayer() {
			got[w.name][m.name] = m.value
		}
	}
	clos, lossy, incast := got["clos_write"], got["lossy_rw"], got["incast_read"]
	if clos["netsim.cpu_frac"] <= lossy["netsim.cpu_frac"] {
		t.Errorf("netsim.cpu_frac: clos_write %.3f, lossy_rw %.3f; want clos_write higher",
			clos["netsim.cpu_frac"], lossy["netsim.cpu_frac"])
	}
	if lossy["pdl.retx_frac"] <= 0 || clos["pdl.retx_frac"] != 0 {
		t.Errorf("pdl.retx_frac: lossy_rw %g, clos_write %g; want lossy_rw > 0 and clos_write 0",
			lossy["pdl.retx_frac"], clos["pdl.retx_frac"])
	}
	if incast["nic.cache_hit_frac"] >= clos["nic.cache_hit_frac"] {
		t.Errorf("nic.cache_hit_frac: incast_read %.4f, clos_write %.4f; want incast_read lower",
			incast["nic.cache_hit_frac"], clos["nic.cache_hit_frac"])
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"falcon/internal/sim.(*Simulator).step"}, "sim"},
		{[]string{"falcon/internal/falcon/wire.(*Packet).CopyFrom", "falcon/internal/core.newEndpoint.func1"}, "core"},
		{[]string{"sort.insertionSort", "falcon/internal/sim.sortEvents", "main.main"}, "sim"},
		{[]string{"runtime.mallocgc", "falcon/internal/rdma.(*QP).Read"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"time.Now", "main.(*harness).issue", "falcon/internal/workload.(*ClosedLoop).pump"}, "other"},
	} {
		if got := layerOfStack(tc.frames); got != tc.want {
			t.Errorf("layerOfStack(%q) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}
