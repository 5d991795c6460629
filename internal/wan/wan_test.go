package wan

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"prete/internal/obs"
	"prete/internal/optical"
)

func fastSwitch() SwitchConfig {
	return SwitchConfig{
		InstallLatency: 2 * time.Millisecond,
		RateLatency:    200 * time.Microsecond,
		MaxTunnels:     100,
	}
}

// checkGoroutineLeaks snapshots the goroutine count and registers a cleanup
// that fails the test if goroutines are still alive once every other
// cleanup (agent and controller shutdown) has run. Register it FIRST in a
// test: t.Cleanup is LIFO, so the check runs last. Shutdown is asynchronous
// (accept loops observe the closed listener on their next wakeup), so the
// check polls briefly before declaring a leak.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if now > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d before, %d after cleanup\n%s", before, now, buf[:n])
		}
	})
}

// newTestAgent starts a switch agent whose shutdown is guaranteed by
// t.Cleanup even when the test fails mid-setup.
func newTestAgent(t *testing.T, name string, cfg SwitchConfig) *SwitchAgent {
	t.Helper()
	a, err := NewSwitchAgent(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := a.Close(); err != nil && !strings.Contains(err.Error(), "use of closed") {
			t.Errorf("agent %s close: %v", name, err)
		}
	})
	return a
}

// newTestController dials the agents with t.Cleanup-based teardown.
func newTestController(t *testing.T, agents map[string]string) *Controller {
	t.Helper()
	ctl, err := NewController(agents)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	return ctl
}

func TestAgentPingAndClose(t *testing.T) {
	checkGoroutineLeaks(t)
	a := newTestAgent(t, "s1", fastSwitch())
	ctl := newTestController(t, map[string]string{"s1": a.Addr()})
	if err := ctl.Ping(); err != nil {
		t.Fatal(err)
	}
	ctl.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInstallAndRemoveTunnels(t *testing.T) {
	checkGoroutineLeaks(t)
	a := newTestAgent(t, "s1", fastSwitch())
	ctl := newTestController(t, map[string]string{"s1": a.Addr()})
	installs := []TunnelInstall{
		{Switch: "s1", TunnelID: 1, Path: []int{0, 1}},
		{Switch: "s1", TunnelID: 2, Path: []int{2}},
	}
	if _, err := ctl.InstallTunnels(installs); err != nil {
		t.Fatal(err)
	}
	if got := a.NumTunnels(); got != 2 {
		t.Fatalf("tunnel table = %d, want 2", got)
	}
	if err := ctl.RemoveTunnels(installs[:1]); err != nil {
		t.Fatal(err)
	}
	if got := a.NumTunnels(); got != 1 {
		t.Fatalf("tunnel table = %d after removal, want 1", got)
	}
}

func TestInstallUnknownSwitch(t *testing.T) {
	checkGoroutineLeaks(t)
	a := newTestAgent(t, "s1", fastSwitch())
	ctl := newTestController(t, map[string]string{"s1": a.Addr()})
	if _, err := ctl.InstallTunnels([]TunnelInstall{{Switch: "nope", TunnelID: 1}}); err == nil {
		t.Fatal("unknown switch accepted")
	}
}

func TestTunnelTableLimit(t *testing.T) {
	checkGoroutineLeaks(t)
	cfg := fastSwitch()
	cfg.MaxTunnels = 2
	a := newTestAgent(t, "s1", cfg)
	ctl := newTestController(t, map[string]string{"s1": a.Addr()})
	installs := []TunnelInstall{
		{Switch: "s1", TunnelID: 1}, {Switch: "s1", TunnelID: 2}, {Switch: "s1", TunnelID: 3},
	}
	if _, err := ctl.InstallTunnels(installs); err == nil {
		t.Fatal("exceeding the tunnel table should fail")
	}
	if got := a.NumTunnels(); got != 2 {
		t.Fatalf("table = %d, want 2", got)
	}
}

func TestUpdateRates(t *testing.T) {
	checkGoroutineLeaks(t)
	a := newTestAgent(t, "s1", fastSwitch())
	ctl := newTestController(t, map[string]string{"s1": a.Addr()})
	if _, err := ctl.UpdateRates(map[string]float64{"t1": 5.5, "t2": 2.25}); err != nil {
		t.Fatal(err)
	}
	rates := a.Rates()
	if rates["t1"] != 5.5 || rates["t2"] != 2.25 {
		t.Fatalf("rates = %v", rates)
	}
	// Last-good bookkeeping: the pushed table is remembered as a copy.
	lg := ctl.LastGoodRates()
	if lg["t1"] != 5.5 || lg["t2"] != 2.25 {
		t.Fatalf("last good rates = %v", lg)
	}
	lg["t1"] = 0
	if ctl.LastGoodRates()["t1"] != 5.5 {
		t.Fatal("LastGoodRates returned shared state")
	}
}

// TestRetryAfterAgentRestart exercises the re-dialing transport and the
// retry loop end to end over real TCP: the agent goes away mid-session and
// a replacement listening elsewhere cannot exist at the same address, so we
// restart on the same port is not guaranteed — instead the test kills the
// agent, observes the give-up path, and checks the controller stays usable
// against a healthy peer.
func TestRetryAfterAgentRestart(t *testing.T) {
	checkGoroutineLeaks(t)
	a := newTestAgent(t, "s1", fastSwitch())
	b := newTestAgent(t, "s2", fastSwitch())
	reg := obs.NewRegistry()
	ctl := newTestController(t, map[string]string{"s1": a.Addr(), "s2": b.Addr()})
	ctl.Metrics = reg
	ctl.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	if err := ctl.Ping(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, err := ctl.InstallTunnels([]TunnelInstall{{Switch: "s1", TunnelID: 1, Path: []int{0}}}); err == nil {
		t.Fatal("install against a dead agent should fail after retries")
	}
	if reg.Counter("wan.rpc.retries").Value() == 0 {
		t.Error("dead agent produced no retries")
	}
	if reg.Counter("wan.rpc.giveups").Value() == 0 {
		t.Error("dead agent produced no give-up")
	}
	// The controller must remain fully usable toward the healthy agent.
	if _, err := ctl.UpdateRates(map[string]float64{"t1": 1}); err == nil {
		t.Fatal("fleet-wide update should fail while s1 is down")
	}
	if _, err := ctl.InstallTunnels([]TunnelInstall{{Switch: "s2", TunnelID: 2, Path: []int{0}}}); err != nil {
		t.Fatalf("healthy agent unusable after s1 died: %v", err)
	}
}

// TestInstallScalingLinear verifies Fig 11b's shape: serialized installs
// make wall time roughly linear in tunnel count.
func TestInstallScalingLinear(t *testing.T) {
	res, err := MeasureInstallScaling(fastSwitch(), []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	d1, d4, d8 := res[1], res[4], res[8]
	if d4 < 2*d1 {
		t.Errorf("4 tunnels (%v) should take well over 2x one tunnel (%v)", d4, d1)
	}
	if d8 < d4 {
		t.Errorf("8 tunnels (%v) faster than 4 (%v)", d8, d4)
	}
	// linearity: d8/d4 within a factor band of 2
	ratio := float64(d8) / float64(d4)
	if ratio < 1.3 || ratio > 3.5 {
		t.Errorf("d8/d4 = %v, expected roughly 2 (linear scaling)", ratio)
	}
}

// TestRunScenario runs the full §5 pipeline on loopback and checks the
// Fig 11a structure: every stage measured, tunnel update dominant, and the
// switch state actually updated.
func TestRunScenario(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, err := NewTestbed(fastSwitch(), func(f optical.Features) float64 {
		if f.DegreeDB <= 0 {
			t.Errorf("predictor got empty features: %+v", f)
		}
		return 0.8
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	reg := obs.NewRegistry()
	tb.Ctl.Metrics = reg
	tb.Ctl.Log = new(EventLog)
	timing, err := tb.RunScenario(7)
	if err != nil {
		t.Fatal(err)
	}
	// Every reaction goes through the controller: the RPC series must be
	// populated, with zero errors on loopback.
	if reg.Counter("wan.rpc.count").Value() == 0 {
		t.Error("no controller RPCs counted")
	}
	if reg.Counter("wan.rpc.errors").Value() != 0 {
		t.Errorf("unexpected RPC errors: %d", reg.Counter("wan.rpc.errors").Value())
	}
	if reg.Counter("wan.rpc.install_tunnel").Value() == 0 {
		t.Error("no install_tunnel RPCs counted")
	}
	if reg.Timer("wan.rpc.latency").Count() != reg.Counter("wan.rpc.count").Value() {
		t.Error("RPC latency samples do not match RPC count")
	}
	if timing.TunnelUpdate <= 0 || timing.TECompute <= 0 || timing.ScenarioRegen <= 0 {
		t.Fatalf("missing stage timings: %+v", timing)
	}
	if timing.Total() <= 0 {
		t.Fatal("zero total")
	}
	if timing.Degraded {
		t.Fatal("loopback run with no faults reported degradation")
	}
	// The pipeline stages must appear in the event log in order.
	var stages []string
	for _, e := range tb.Ctl.Log.Events() {
		if strings.HasPrefix(e, "stage ") {
			stages = append(stages, strings.TrimPrefix(e, "stage "))
		}
	}
	want := []string{"inference", "tunnel-update", "scenario-regen", "te-compute", "rate-install"}
	if len(stages) != len(want) {
		t.Fatalf("stage events = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stage order = %v, want %v", stages, want)
		}
	}
	// the new tunnel must be on the switch
	installed := 0
	for _, a := range tb.Agents {
		installed += a.NumTunnels()
	}
	if installed == 0 {
		t.Fatal("no tunnels installed on any agent")
	}
	// rate adaptation pushed
	if len(tb.Agents[0].Rates()) == 0 {
		t.Fatal("no rates installed")
	}
}

func TestPipelineTotal(t *testing.T) {
	p := PipelineTiming{
		Detection: 1, Inference: 2, TunnelUpdate: 3,
		ScenarioRegen: 4, TECompute: 5, RateInstall: 6,
	}
	if p.Total() != 21 {
		t.Fatalf("total = %v", p.Total())
	}
}

func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	// Without jitter the schedule is the capped doubling sequence.
	for i, want := range []time.Duration{10, 20, 40, 40} {
		if got := p.backoff(i+1, nil); got != want*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
}
