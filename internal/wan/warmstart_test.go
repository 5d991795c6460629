package wan

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/scenario"
)

// TestSolveCachePersistsAcrossRounds: two identical reaction rounds on one
// controller incarnation — the second TE solve must be served from the
// warm-start cache, and the installed rates must not move.
func TestSolveCachePersistsAcrossRounds(t *testing.T) {
	checkGoroutineLeaks(t)
	tb := newStateTestbed(t)
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	firstRates := tb.Ctl.LastGoodRates()
	st := tb.SolveCacheStats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after round 1: cache stats = %+v, want 1 miss 0 hits", st)
	}
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	st = tb.SolveCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("after round 2: cache stats = %+v, want 1 miss 1 hit", st)
	}
	if got := tb.Ctl.LastGoodRates(); !reflect.DeepEqual(got, firstRates) {
		t.Errorf("cached round installed different rates: %v vs %v", got, firstRates)
	}
}

// TestJournalFingerprintRoundtrip: the scenario-set fingerprint journaled
// with the epoch survives a crash-restart and comes back through
// LastScenarioFP and the recovered EpochState.
func TestJournalFingerprintRoundtrip(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	tb := newStateTestbed(t)
	if _, err := tb.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	want := tb.Ctl.LastScenarioFP()
	if want == 0 {
		t.Fatal("reaction round journaled a zero scenario fingerprint")
	}
	// The fingerprint must be the one the round's enumeration produces.
	set, err := scenario.Enumerate(tb.Ctl.LastProbs(), scenario.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Fingerprint(); got != want {
		t.Fatalf("journaled fingerprint %s does not match re-enumeration %s", want, got)
	}

	if err := tb.RestartController(TCPTransport{}); err != nil {
		t.Fatal(err)
	}
	rec, err := tb.OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Warm {
		t.Fatalf("restart did not recover warm: %+v", rec)
	}
	if got := tb.Ctl.LastScenarioFP(); got != want {
		t.Errorf("LastScenarioFP after recovery = %s, want %s", got, want)
	}
}

// TestWarmRestartPrimesSolver: after a crash-restart against a journaled
// state directory, OpenState rebuilds the epoch's TE input, verifies the
// scenario fingerprint, and primes the solver cache — so the first
// post-restart reaction round is a cache hit, not a cold solve.
func TestWarmRestartPrimesSolver(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	tb := newStateTestbed(t)
	if _, err := tb.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	wantRates := tb.Ctl.LastGoodRates()

	if err := tb.RestartController(TCPTransport{}); err != nil {
		t.Fatal(err)
	}
	// A restart loses the in-memory cache: stats must read all-zero again.
	if st := tb.SolveCacheStats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("cache survived RestartController: %+v", st)
	}
	rec, err := tb.OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Warm {
		t.Fatalf("restart did not recover warm: %+v", rec)
	}
	m := tb.Ctl.Metrics
	if v := m.Counter("wan.recovery.scenario_fp_match").Value(); v != 1 {
		t.Errorf("wan.recovery.scenario_fp_match = %d, want 1", v)
	}
	if v := m.Counter("wan.warmstart.primed").Value(); v != 1 {
		t.Errorf("wan.warmstart.primed = %d, want 1", v)
	}
	// Priming itself is the cache's one (cold) miss.
	st := tb.SolveCacheStats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after priming: cache stats = %+v, want 1 miss 0 hits", st)
	}
	// The first post-restart reaction round hits the primed cache and
	// reinstalls the same rates the pre-crash epoch computed.
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	st = tb.SolveCacheStats()
	if st.Hits != 1 {
		t.Errorf("post-restart round: cache stats = %+v, want 1 hit", st)
	}
	if got := tb.Ctl.LastGoodRates(); !reflect.DeepEqual(got, wantRates) {
		t.Errorf("post-restart rates = %v, want pre-crash %v", got, wantRates)
	}
}

// TestWarmRestartFingerprintMismatchSkipsPriming: a journaled fingerprint
// that disagrees with what recovery can re-enumerate (options or code
// drifted across the restart) must leave the solver cache cold and count
// the mismatch.
func TestWarmRestartFingerprintMismatchSkipsPriming(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	tb := newStateTestbed(t)
	if _, err := tb.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	// Journal one more epoch whose fingerprint cannot be reproduced from its
	// probability vector — the shape of an enumeration-option change.
	if err := tb.Ctl.JournalEpoch(tb.Ctl.LastProbs(), scenario.Fingerprint(0xdeadbeef)); err != nil {
		t.Fatal(err)
	}

	if err := tb.RestartController(TCPTransport{}); err != nil {
		t.Fatal(err)
	}
	rec, err := tb.OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Warm {
		t.Fatalf("restart did not recover warm: %+v", rec)
	}
	m := tb.Ctl.Metrics
	if v := m.Counter("wan.recovery.scenario_fp_mismatch").Value(); v != 1 {
		t.Errorf("wan.recovery.scenario_fp_mismatch = %d, want 1", v)
	}
	if v := m.Counter("wan.warmstart.primed").Value(); v != 0 {
		t.Errorf("wan.warmstart.primed = %d, want 0 (priming must be skipped)", v)
	}
	if st := tb.SolveCacheStats(); st.Misses != 0 && st.Hits != 0 {
		t.Errorf("cache touched despite fingerprint mismatch: %+v", st)
	}
}

// refuseInstalls dials agents over TCP and, while on is set, has every
// switch refuse tunnel installs (an application-level rejection, which the
// controller does not retry).
type refuseInstalls struct{ on *atomic.Bool }

func (r refuseInstalls) Dial(name, addr string) (Conn, error) {
	cn, err := TCPTransport{}.Dial(name, addr)
	if err != nil {
		return nil, err
	}
	return refusingConn{Conn: cn, on: r.on}, nil
}

type refusingConn struct {
	Conn
	on *atomic.Bool
}

func (c refusingConn) RoundTrip(req *Request, timeout time.Duration) (*Response, error) {
	if req.Type == MsgInstallTunnel && c.on.Load() {
		return &Response{Err: "refused"}, errors.New("install refused")
	}
	return c.Conn.RoundTrip(req, timeout)
}

// TestWarmRestartReinstallsFallenBackEpisode: the journaled epoch fell back
// to the base tunnels because its installs were refused, so its episode
// never reached the agents. After a warm restart the loop rebuilds that
// episode, and the first reaction round must install it before it pushes
// rates onto its tunnels.
func TestWarmRestartReinstallsFallenBackEpisode(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	var refuse atomic.Bool
	refuse.Store(true)
	tr := refuseInstalls{on: &refuse}
	tb, err := NewTestbedTransport(fastSwitch(), func(optical.Features) float64 { return 0.8 }, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.Ctl.Metrics = obs.NewRegistry()
	tb.Ctl.Log = new(EventLog)
	tb.SolveUnits = 200000
	if _, err := tb.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	timing, err := tb.RunScenario(7)
	if err != nil {
		t.Fatal(err)
	}
	if !timing.Degraded || len(heldTunnels(tb)) != 0 {
		t.Fatalf("refused installs: degraded=%v, agents hold %v", timing.Degraded, heldTunnels(tb))
	}
	baseRates := tb.Ctl.LastGoodRates()

	refuse.Store(false)
	if err := tb.RestartController(tr); err != nil {
		t.Fatal(err)
	}
	if rec, err := tb.OpenState(dir); err != nil || !rec.Warm {
		t.Fatalf("restart did not recover warm: %+v, %v", rec, err)
	}
	if timing, err = tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if timing.Degraded {
		t.Fatal("post-restart round degraded with installs accepted")
	}
	held := heldTunnels(tb)
	var reactive int
	for key := range tb.Ctl.LastGoodRates() {
		if _, ok := baseRates[key]; ok {
			continue
		}
		reactive++
		if !held[key] {
			t.Errorf("rates pushed onto %s, which no agent holds (agents hold %v)", key, held)
		}
	}
	if reactive == 0 {
		t.Fatal("the post-restart round planned on no reactive tunnel")
	}
}

// heldTunnels returns the rate-table keys of the tunnels the agents hold.
func heldTunnels(tb *Testbed) map[string]bool {
	held := make(map[string]bool)
	for _, a := range tb.Agents {
		a.mu.Lock()
		for id := range a.tunnels {
			held[fmt.Sprintf("t%d", id)] = true
		}
		a.mu.Unlock()
	}
	return held
}
