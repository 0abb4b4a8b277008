package main

import (
	"testing"
	"time"

	"lifeguard/internal/core"
	"lifeguard/internal/experiment"
	"lifeguard/internal/sim"
)

// With shims off, the benchmark's builder must reproduce
// experiment.NewCluster + Start event for event.
func TestBuilderMatchesExperimentCluster(t *testing.T) {
	zones, pairs := experiment.DefaultWANZones(6)
	topo, n := experiment.BuildWANTopology(zones, sim.LinkProfile{Base: time.Millisecond}, pairs)
	for name, cc := range map[string]experiment.ClusterConfig{
		"lifeguard": {N: 32, Seed: 3, Protocol: experiment.ConfigLifeguard},
		"swim":      {N: 24, Seed: 5, Protocol: experiment.ConfigSWIM},
		"wan": {N: n, Seed: 7, Protocol: experiment.ConfigLifeguard, Net: sim.Options{Topology: topo},
			TopologyAware: true, Telemetry: true},
	} {
		if err := checkConformance(cc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Tracing must not perturb a run: every workload's traced round has the
// untraced round's outcome digest.
func TestTracedRoundMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name != "paper-128" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			u, err := w.round(11, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			ts := newTraceState()
			tr, err := w.round(11, 0, ts)
			if err != nil {
				t.Fatal(err)
			}
			if u.out.failed > 0 || tr.out.failed > 0 {
				t.Fatalf("failed operations: %q / %q", u.out.failReason, tr.out.failReason)
			}
			if u.digest != tr.digest {
				t.Fatalf("digest %x untraced, %x traced", u.digest, tr.digest)
			}
			if tr.trace.spans[spanHandle].n == 0 || tr.trace.spans[spanTimer].n == 0 {
				t.Fatalf("traced round recorded no handler or timer spans: %+v", tr.trace.spans)
			}
		})
	}
}

type plainTransport struct{}

func (plainTransport) SendPacket(string, []byte, bool) error { return nil }
func (plainTransport) LocalAddr() string                     { return "x" }

type fanTransport struct{ plainTransport }

func (fanTransport) SendPacketFanout([]string, []byte, bool) error { return nil }

// The core picks its fan-out path by type assertion, so the transport
// shim must implement core.FanoutTransport exactly when the wrapped
// transport does.
func TestTransportShimKeepsFanout(t *testing.T) {
	nt := newTracer().node("n")
	plain, _ := wrapTransport(plainTransport{}, nt, spanSimSend, newWireCapture())
	if _, ok := plain.(core.FanoutTransport); ok {
		t.Error("shim of a plain transport implements FanoutTransport")
	}
	fan, _ := wrapTransport(fanTransport{}, nt, spanSimSend, newWireCapture())
	if _, ok := fan.(core.FanoutTransport); !ok {
		t.Error("shim of a fan-out transport lost FanoutTransport")
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"lifeguard/internal/sim.(*calendarQueue).pop", "lifeguard/internal/sim.(*Scheduler).Step"}, "sim.sched"},
		{[]string{"lifeguard/internal/sim.(*Port).serveOne", "lifeguard/internal/sim.servePort"}, "sim.net"},
		{[]string{"runtime.mapaccess2_faststr", "lifeguard/internal/core.(*Node).handleAliveLocked"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "lifeguard/internal/wire.(*Unpacker).Decode"}, "runtime"},
		{[]string{"syscall.Syscall6", "net.(*UDPConn).WriteToUDP", "lifeguard/internal/nettrans.(*Transport).SendPacket"}, "nettrans"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"time.Sleep", "sync.(*Mutex).Lock"}, "unmapped"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
