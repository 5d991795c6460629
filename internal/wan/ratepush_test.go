package wan

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"prete/internal/obs"
)

// ratePush is one update_rates request as the controller sent it.
type ratePush struct {
	peer      string
	base, tag uint64
	entries   int
}

// tapTransport dials agents over TCP, records every rate push the
// controller sends, and can re-point a switch name at another agent (an
// agent replaced behind the controller's back).
type tapTransport struct {
	mu     sync.Mutex
	pushes []ratePush
	conns  map[string]*tapConn
}

type tapConn struct {
	tr   *tapTransport
	peer string

	mu    sync.Mutex
	inner Conn
}

func (tr *tapTransport) Dial(name, addr string) (Conn, error) {
	inner, err := TCPTransport{}.Dial(name, addr)
	if err != nil {
		return nil, err
	}
	c := &tapConn{tr: tr, peer: name, inner: inner}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.conns == nil {
		tr.conns = make(map[string]*tapConn)
	}
	tr.conns[name] = c
	return c, nil
}

// redirect points name's connection at addr from the next RPC on.
func (tr *tapTransport) redirect(t *testing.T, name, addr string) {
	t.Helper()
	inner, err := TCPTransport{}.Dial(name, addr)
	if err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	c := tr.conns[name]
	tr.mu.Unlock()
	c.mu.Lock()
	old := c.inner
	c.inner = inner
	c.mu.Unlock()
	old.Close()
}

// take returns and clears the recorded pushes.
func (tr *tapTransport) take() []ratePush {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := tr.pushes
	tr.pushes = nil
	return out
}

func (c *tapConn) RoundTrip(req *Request, timeout time.Duration) (*Response, error) {
	if req.Type == MsgUpdateRates {
		c.tr.mu.Lock()
		c.tr.pushes = append(c.tr.pushes, ratePush{c.peer, req.Base, req.Tag, len(req.Rates)})
		c.tr.mu.Unlock()
	}
	c.mu.Lock()
	inner := c.inner
	c.mu.Unlock()
	return inner.RoundTrip(req, timeout)
}

func (c *tapConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Close()
}

// newTapFleet starts n agents (s1..sn) and a controller dialing them through
// a tapTransport.
func newTapFleet(t *testing.T, n int) ([]*SwitchAgent, *Controller, *tapTransport) {
	t.Helper()
	cfg := fastSwitch()
	cfg.RateLatency = 0
	var agents []*SwitchAgent
	addrs := make(map[string]string, n)
	for i := 1; i <= n; i++ {
		a := newTestAgent(t, fmt.Sprintf("s%d", i), cfg)
		agents = append(agents, a)
		addrs[a.Name] = a.Addr()
	}
	tr := &tapTransport{}
	ctl, err := NewControllerTransport(tr, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	ctl.Metrics = obs.NewRegistry()
	ctl.Log = new(EventLog)
	return agents, ctl, tr
}

// checkPushes requires one push per agent, each with the given entry count
// and a delta base (or none).
func checkPushes(t *testing.T, step string, got []ratePush, agents, entries int, delta bool) {
	t.Helper()
	if len(got) != agents {
		t.Fatalf("%s: %d rate pushes, want one per agent (%d): %+v", step, len(got), agents, got)
	}
	for _, p := range got {
		if p.entries != entries || (p.base != 0) != delta || p.tag == 0 {
			t.Errorf("%s: push to %s = %+v, want %d entries, delta=%v, a tag", step, p.peer, p, entries, delta)
		}
	}
}

// TestRatePushSendsDeltas: an unchanged table goes out as an empty-delta
// heartbeat, changing one tunnel's rate sends that one entry, and after
// every push each agent holds the fold-merge of every table pushed so far.
func TestRatePushSendsDeltas(t *testing.T) {
	checkGoroutineLeaks(t)
	agents, ctl, tr := newTapFleet(t, 3)
	folded := map[string]float64{}
	push := func(step string, table map[string]float64) []ratePush {
		t.Helper()
		if _, err := ctl.UpdateRates(table); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for k, v := range table {
			folded[k] = v
		}
		for _, a := range agents {
			if got := a.Rates(); !reflect.DeepEqual(got, folded) {
				t.Fatalf("%s: agent %s holds %v, want the fold-merge %v", step, a.Name, got, folded)
			}
		}
		if got := ctl.LastGoodRates(); !reflect.DeepEqual(got, table) {
			t.Fatalf("%s: last good %v, want %v", step, got, table)
		}
		return tr.take()
	}

	table := map[string]float64{"t0": 10, "t1": 20, "t2": 30, "t3": 40}
	checkPushes(t, "first push", push("first push", table), 3, 4, false)
	checkPushes(t, "unchanged", push("unchanged", table), 3, 0, true)

	table = map[string]float64{"t0": 10, "t1": 25, "t2": 30, "t3": 40}
	checkPushes(t, "one rate changed", push("one rate changed", table), 3, 1, true)

	// A dropped tunnel sends nothing (agents merge; its entry lingers), an
	// added one sends its entry.
	table = map[string]float64{"t0": 10, "t1": 25, "t2": 30, "t4": 0}
	checkPushes(t, "drop one, add one", push("drop one, add one", table), 3, 1, true)

	// Only the bits count: -0 differs from +0.
	table = map[string]float64{"t0": 10, "t1": 25, "t2": 30, "t4": math.Copysign(0, -1)}
	checkPushes(t, "sign of zero", push("sign of zero", table), 3, 1, true)

	if v := ctl.Metrics.Counter("wan.rates.entries_sent").Value(); v != 3*(4+0+1+1+1) {
		t.Errorf("wan.rates.entries_sent = %d, want %d", v, 3*(4+0+1+1+1))
	}
	if v := ctl.Metrics.Counter("wan.rates.resyncs").Value(); v != 0 {
		t.Errorf("wan.rates.resyncs = %d, want 0", v)
	}
}

// TestRatePushResyncsFreshAgent: the agent behind one name is replaced by a
// fresh one. The next delta to it is refused with exactly one rejected RPC,
// the full table follows in the same UpdateRates call, and the fleet ends
// on the new table.
func TestRatePushResyncsFreshAgent(t *testing.T) {
	checkGoroutineLeaks(t)
	agents, ctl, tr := newTapFleet(t, 2)
	first := map[string]float64{"t0": 1, "t1": 2, "t2": 3}
	if _, err := ctl.UpdateRates(first); err != nil {
		t.Fatal(err)
	}
	fresh := newTestAgent(t, "s2", agents[1].cfg)
	tr.redirect(t, "s2", fresh.Addr())
	tr.take()
	before := len(ctl.Log.Events())

	next := map[string]float64{"t0": 1, "t1": 5, "t2": 3}
	if _, err := ctl.UpdateRates(next); err != nil {
		t.Fatal(err)
	}
	wantEvents := []string{
		"rpc s1 update_rates ok",
		"rpc s2 update_rates rejected",
		"rpc s2 update_rates ok",
	}
	if got := ctl.Log.Events()[before:]; !reflect.DeepEqual(got, wantEvents) {
		t.Errorf("events = %q, want %q", got, wantEvents)
	}
	pushes := tr.take()
	if len(pushes) != 3 || pushes[1].base == 0 || pushes[2].base != 0 || pushes[2].entries != len(next) {
		t.Errorf("pushes = %+v, want s1 delta, s2 delta, s2 full (%d entries)", pushes, len(next))
	}
	if got := fresh.Rates(); !reflect.DeepEqual(got, next) {
		t.Errorf("fresh agent holds %v, want %v", got, next)
	}
	if got := agents[0].Rates(); !reflect.DeepEqual(got, next) {
		t.Errorf("s1 holds %v, want %v", got, next)
	}
	if v := ctl.Metrics.Counter("wan.rates.resyncs").Value(); v != 1 {
		t.Errorf("wan.rates.resyncs = %d, want 1", v)
	}

	// The resynced agent is acknowledged: the next push is a delta again.
	if _, err := ctl.UpdateRates(next); err != nil {
		t.Fatal(err)
	}
	checkPushes(t, "after resync", tr.take(), 2, 0, true)
}

// warmRestart journals table from a controller on a fresh fleet of three,
// lets between act on the dead incarnation's fleet, and opens a warm
// incarnation on the same directory through a tapTransport dialing addrs
// (the old fleet's addresses when nil).
func warmRestart(t *testing.T, table map[string]float64,
	between func(agents []*SwitchAgent, dead *Controller, addrs map[string]string)) ([]*SwitchAgent, *Controller, *tapTransport) {
	t.Helper()
	dir := t.TempDir()
	agents, ctl, _ := newTapFleet(t, 3)
	if _, err := ctl.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.UpdateRates(table); err != nil {
		t.Fatal(err)
	}
	if err := ctl.JournalEpoch(nil, 0); err != nil {
		t.Fatal(err)
	}
	addrs := make(map[string]string, len(agents))
	for _, a := range agents {
		addrs[a.Name] = a.Addr()
	}
	if between != nil {
		between(agents, ctl, addrs)
	}
	ctl.Close()

	tr := &tapTransport{}
	warm, err := NewControllerTransport(tr, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { warm.Close() })
	warm.Metrics = obs.NewRegistry()
	warm.Log = new(EventLog)
	rec, err := warm.OpenState(dir)
	if err != nil || !rec.Warm {
		t.Fatalf("OpenState = %+v, %v; want a warm recovery", rec, err)
	}
	return agents, warm, tr
}

// holdsEntries requires a to hold every entry of table, bit for bit.
func holdsEntries(t *testing.T, a *SwitchAgent, table map[string]float64) {
	t.Helper()
	got := a.Rates()
	for k, v := range table {
		if w, ok := got[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
			t.Errorf("agent %s holds %s=%v, want %v", a.Name, k, w, v)
		}
	}
}

// TestWarmRestartReassertsByTag: a warm incarnation presumes every agent
// holds the recovered table, so its re-assert is a heartbeat at the
// recovered tag, and the agents' tag check corrects the presumption where
// it is wrong: only an agent whose table differs gets the full table.
func TestWarmRestartReassertsByTag(t *testing.T) {
	table := map[string]float64{"t0": 7, "t1": 8}
	tag := rateTag(table)
	reassert := func(t *testing.T, warm *Controller) {
		t.Helper()
		if _, err := warm.UpdateRates(warm.LastGoodRates()); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("fleet holds the table", func(t *testing.T) {
		checkGoroutineLeaks(t)
		agents, warm, tr := warmRestart(t, table, nil)
		reassert(t, warm)
		pushes := tr.take()
		checkPushes(t, "first push after restart", pushes, 3, 0, true)
		for _, p := range pushes {
			if p.base != tag || p.tag != tag {
				t.Errorf("push to %s = %+v, want a heartbeat at the recovered tag %x", p.peer, p, tag)
			}
		}
		if v := warm.Metrics.Counter("wan.rates.resyncs").Value(); v != 0 {
			t.Errorf("wan.rates.resyncs = %d, want 0", v)
		}
		for _, a := range agents {
			if got := a.Rates(); !reflect.DeepEqual(got, table) {
				t.Errorf("agent %s holds %v, want %v", a.Name, got, table)
			}
			if got := a.MaxGen(); got != warm.Generation() {
				t.Errorf("agent %s fenced to gen %d, want %d", a.Name, got, warm.Generation())
			}
		}
		reassert(t, warm)
		checkPushes(t, "second push after restart", tr.take(), 3, 0, true)
	})

	t.Run("an agent was replaced", func(t *testing.T) {
		checkGoroutineLeaks(t)
		var fresh *SwitchAgent
		agents, warm, tr := warmRestart(t, table, func(agents []*SwitchAgent, _ *Controller, addrs map[string]string) {
			fresh = newTestAgent(t, "s2", agents[1].cfg)
			addrs["s2"] = fresh.Addr()
		})
		reassert(t, warm)
		wantEvents := []string{
			"rpc s1 update_rates ok",
			"rpc s2 update_rates rejected",
			"rpc s2 update_rates ok",
			"rpc s3 update_rates ok",
		}
		if got := warm.Log.Events()[1:]; !reflect.DeepEqual(got, wantEvents) {
			t.Errorf("events = %q, want %q", got, wantEvents)
		}
		wantPushes := []ratePush{{"s1", tag, tag, 0}, {"s2", tag, tag, 0}, {"s2", 0, tag, len(table)}, {"s3", tag, tag, 0}}
		if got := tr.take(); !reflect.DeepEqual(got, wantPushes) {
			t.Errorf("pushes = %+v, want %+v", got, wantPushes)
		}
		if v := warm.Metrics.Counter("wan.rates.resyncs").Value(); v != 1 {
			t.Errorf("wan.rates.resyncs = %d, want 1", v)
		}
		holdsEntries(t, fresh, table)
		holdsEntries(t, agents[0], table)
		holdsEntries(t, agents[2], table)
	})

	t.Run("an unjournaled push reached one agent", func(t *testing.T) {
		checkGoroutineLeaks(t)
		newer := map[string]float64{"t0": 9, "t1": 8, "t2": 1}
		agents, warm, tr := warmRestart(t, table, func(_ []*SwitchAgent, dead *Controller, _ map[string]string) {
			// The dead incarnation's push of a newer table reached s3 only.
			req := &Request{Type: MsgUpdateRates, Rates: newer, Tag: rateTag(newer)}
			if _, err := dead.rpc("s3", dead.conns["s3"], req); err != nil {
				t.Fatal(err)
			}
		})
		reassert(t, warm)
		var full []ratePush
		for _, p := range tr.take() {
			if p.base == 0 {
				full = append(full, p)
			}
		}
		if len(full) != 1 || full[0].peer != "s3" || full[0].entries != len(table) {
			t.Errorf("full pushes = %+v, want one of %d entries to s3", full, len(table))
		}
		if v := warm.Metrics.Counter("wan.rates.resyncs").Value(); v != 1 {
			t.Errorf("wan.rates.resyncs = %d, want 1", v)
		}
		for _, a := range agents {
			holdsEntries(t, a, table)
		}
	})
}

// TestAgentRefusesStaleDelta drives the agent's handler directly: a delta
// cut against a table the agent no longer holds — a late push that a newer
// one overtook — is answered Resync and changes nothing, while a repeated
// delivery of the delta the agent already applied is a no-op success.
func TestAgentRefusesStaleDelta(t *testing.T) {
	a := newTestAgent(t, "s1", fastSwitch())
	t1 := map[string]float64{"t0": 1, "t1": 2}
	t2 := map[string]float64{"t0": 1, "t1": 3}
	t3 := map[string]float64{"t0": 4, "t1": 2}
	tag1, tag2, tag3 := rateTag(t1), rateTag(t2), rateTag(t3)
	if tag1 == tag2 || tag1 == tag3 || tag2 == tag3 {
		t.Fatalf("tags collide: %x %x %x", tag1, tag2, tag3)
	}
	handle := func(req *Request) *Response {
		t.Helper()
		req.Type = MsgUpdateRates
		return a.handle(req)
	}
	if resp := handle(&Request{Rates: t1, Tag: tag1}); !resp.OK {
		t.Fatalf("full push refused: %+v", resp)
	}
	delta := &Request{Rates: map[string]float64{"t1": 3}, Base: tag1, Tag: tag2}
	if resp := handle(delta); !resp.OK {
		t.Fatalf("delta against the held table refused: %+v", resp)
	}
	if resp := handle(delta); !resp.OK || resp.Resync {
		t.Fatalf("duplicate delta = %+v, want a no-op OK", resp)
	}
	if got := a.Rates(); !reflect.DeepEqual(got, t2) {
		t.Fatalf("after delta and duplicate: %v, want %v", got, t2)
	}

	stale := &Request{Rates: map[string]float64{"t0": 4}, Base: tag1, Tag: tag3}
	resp := handle(stale)
	if resp.OK || !resp.Resync || resp.Err == "" {
		t.Fatalf("stale delta = %+v, want a Resync rejection", resp)
	}
	if got := a.Rates(); !reflect.DeepEqual(got, t2) {
		t.Fatalf("stale delta changed the table: %v, want %v", got, t2)
	}

	// The full table always lands.
	if resp := handle(&Request{Rates: t3, Tag: tag3}); !resp.OK {
		t.Fatalf("full push after resync refused: %+v", resp)
	}
	if got := a.Rates(); !reflect.DeepEqual(got, t3) {
		t.Fatalf("after the full push: %v, want %v", got, t3)
	}
}

// TestRefusedTableKeepsWarmRestart: the controller refuses, before any RPC
// or journal write, state its own recovery would refuse. A table with a
// negative or non-finite rate never reaches an agent, LastGoodRates keeps
// the previous table, and a probability outside [0, 1] journals nothing,
// so the next incarnation recovers the previous table warm instead of
// starting cold on a record it cannot decode.
func TestRefusedTableKeepsWarmRestart(t *testing.T) {
	checkGoroutineLeaks(t)
	good := map[string]float64{"t0": 7, "t1": 8}
	agents, warm, _ := warmRestart(t, good, func(agents []*SwitchAgent, dead *Controller, _ map[string]string) {
		events := len(dead.Log.Events())
		for _, bad := range []map[string]float64{
			{"t0": 6.5, "t1": -3.75},
			{"t0": math.NaN(), "t1": 8},
			{"t0": 7, "t1": math.Inf(1)},
		} {
			if _, err := dead.UpdateRates(bad); err == nil {
				t.Errorf("UpdateRates(%v) succeeded, want a refusal", bad)
			}
		}
		if got := len(dead.Log.Events()); got != events {
			t.Errorf("refused pushes logged %d RPC events, want none", got-events)
		}
		if got := dead.LastGoodRates(); !reflect.DeepEqual(got, good) {
			t.Errorf("LastGoodRates after refused pushes = %v, want %v", got, good)
		}
		if err := dead.JournalEpoch(nil, 0); err != nil {
			t.Fatal(err)
		}
		for _, probs := range [][]float64{{0.5, 1.5}, {-0.25}, {math.NaN()}} {
			if err := dead.JournalEpoch(probs, 0); err == nil {
				t.Errorf("JournalEpoch(%v) succeeded, want a refusal", probs)
			}
		}
		if got := dead.Epoch(); got != 2 {
			t.Errorf("refused journal writes advanced the epoch to %d, want 2", got)
		}
	})
	if got := warm.Epoch(); got != 2 {
		t.Errorf("warm restart recovered epoch %d, want 2", got)
	}
	if got := warm.LastGoodRates(); !reflect.DeepEqual(got, good) {
		t.Errorf("warm restart recovered %v, want %v", got, good)
	}
	for _, a := range agents {
		holdsEntries(t, a, good)
	}
}

// TestHeartbeatSkipsRateLatency: an agent pays RateLatency for a rate push
// that places entries, not for the empty-delta heartbeat of an unchanged
// table, which touches none.
func TestHeartbeatSkipsRateLatency(t *testing.T) {
	checkGoroutineLeaks(t)
	cfg := fastSwitch()
	cfg.RateLatency = 300 * time.Millisecond
	a := newTestAgent(t, "s1", cfg)
	ctl := newTestController(t, map[string]string{"s1": a.Addr()})
	table := map[string]float64{"t0": 7, "t1": 8}
	full, err := ctl.UpdateRates(table)
	if err != nil {
		t.Fatal(err)
	}
	heartbeat, err := ctl.UpdateRates(table)
	if err != nil {
		t.Fatal(err)
	}
	if full < cfg.RateLatency {
		t.Errorf("the full push took %v, want at least RateLatency %v", full, cfg.RateLatency)
	}
	if heartbeat >= cfg.RateLatency/2 {
		t.Errorf("the heartbeat took %v, want under %v", heartbeat, cfg.RateLatency/2)
	}
}

// fixedTransport dials conns that answer every RPC with one response,
// without a network or an agent.
type fixedTransport struct{ resp *Response }

type fixedConn struct{ resp *Response }

func (tr fixedTransport) Dial(string, string) (Conn, error) { return fixedConn(tr), nil }

func (c fixedConn) RoundTrip(*Request, time.Duration) (*Response, error) { return c.resp, nil }

func (fixedConn) Close() error { return nil }

// TestRPCWithoutLogAllocatesNothing: a controller without an event log
// pays no allocation for the log in an RPC, and one with a log records the
// RPC's outcome.
func TestRPCWithoutLogAllocatesNothing(t *testing.T) {
	c, err := NewControllerTransport(fixedTransport{&Response{OK: true}}, map[string]string{"s1": ""})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cn, req := c.conns["s1"], &Request{Type: MsgUpdateRates}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.rpc("s1", cn, req); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an RPC without a log allocates %v times, want 0", allocs)
	}
	c.Log = &EventLog{}
	if _, err := c.rpc("s1", cn, req); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Log.Events(), []string{"rpc s1 update_rates ok"}; !reflect.DeepEqual(got, want) {
		t.Errorf("events = %q, want %q", got, want)
	}
}
