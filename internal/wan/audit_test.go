package wan_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"prete/internal/fault"
	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/persist"
	"prete/internal/wan"
)

// tapTransport dials over TCP and keeps the connection it dialed, so a test
// can send frames down one site's replication stream itself.
type tapTransport struct{ conn wan.Conn }

func (tp *tapTransport) Dial(name, addr string) (wan.Conn, error) {
	cn, err := wan.TCPTransport{}.Dial(name, addr)
	tp.conn = cn
	return cn, err
}

// TestPromotionAuditsAppliedPrefix checks the promotion audit
// (SitePromotion.MirrorMatch: what a site recovers from disk is what its
// apply path acknowledged) on one SiteSet of four standbys, each claiming in
// turn after the leader's lease dies:
//   - site 1 applied both epochs cleanly: match;
//   - site 2's newest journal record is torn, so it recovers epoch 1 of 2:
//     mismatch;
//   - site 3's newest applied frame is CRC-valid but is not controller state,
//     so it recovers cold with a non-empty prefix: mismatch;
//   - site 4's stream is partitioned from the start, so it applied nothing
//     and recovers cold: match.
//
// Site 1's claim wins the fleet; the others are fenced by its generation
// after the audit, so each outcome is read from the promotion event line.
func TestPromotionAuditsAppliedPrefix(t *testing.T) {
	reg := obs.NewRegistry()
	log := new(wan.EventLog)
	dir, sitesRoot := t.TempDir(), t.TempDir()
	tb, err := wan.NewTestbed(wan.SwitchConfig{
		InstallLatency: 2 * time.Millisecond,
		RateLatency:    200 * time.Microsecond,
		MaxTunnels:     100,
	}, func(optical.Features) float64 { return 0.8 })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.Ctl.Metrics = reg
	tb.Ctl.Log = log
	tb.SolveUnits = 200000
	if _, err := tb.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	lease, err := wan.NewLeaseServer(tb.Ctl.Generation)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lease.Close() })
	cut, err := fault.NewInjector(fault.Spec{Seed: 1, Partition: 1, PartitionRPCs: 1 << 20}, reg)
	if err != nil {
		t.Fatal(err)
	}
	forger := &tapTransport{}
	ss, err := wan.NewSiteSet(dir, sitesRoot, lease.Addr(), tb.AgentAddrs(), wan.SiteOptions{
		Sites:            4,
		LeaseTicks:       3,
		HeartbeatTimeout: 100 * time.Millisecond,
		Ship: func(id int) wan.Transport {
			switch id {
			case 3:
				return forger
			case 4:
				return fault.NewTransport(wan.TCPTransport{}, cut)
			}
			return wan.TCPTransport{}
		},
		Metrics: reg,
		Log:     log,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })

	for epoch := 0; epoch < 2; epoch++ {
		if _, err := tb.RunScenario(7); err != nil {
			t.Fatal(err)
		}
		if p, err := ss.Tick(); p != nil || err != nil {
			t.Fatalf("healthy tick: promotion=%v err=%v", p, err)
		}
	}
	for _, st := range ss.Status() {
		if want := map[int]uint64{1: 2, 2: 2, 3: 2, 4: 0}[st.ID]; st.Applied != want {
			t.Fatalf("site %d applied %d before the faults, want %d", st.ID, st.Applied, want)
		}
	}
	if err := fault.TornJournalTail(filepath.Join(sitesRoot, "site-2"), 5); err != nil {
		t.Fatal(err)
	}
	frame := persist.EncodeReplFrame(3, []byte(`{"epoch":0}`))
	if resp, err := forger.conn.RoundTrip(&wan.Request{Type: wan.MsgReplRecord, Frame: frame}, time.Second); err != nil || !resp.OK || resp.Ack != 3 {
		t.Fatalf("forged frame: resp=%+v err=%v, want applied at 3", resp, err)
	}

	lease.Close()
	ss.Clock().Advance(3) // a full lease duration of silence: every lease lapses
	for id := 1; id <= 4; id++ {
		p, err := ss.Promote(id)
		switch {
		case id == 1 && err == nil:
			t.Cleanup(func() { p.Ctl.Close() })
		case id > 1 && errors.Is(err, wan.ErrClaimFenced):
		default:
			t.Fatalf("site %d claim: promotion=%v err=%v", id, p, err)
		}
	}
	events := log.Events()
	for id, want := range map[int]string{
		1: "warm=true mirror_match=true",
		2: "warm=true mirror_match=false",
		3: "warm=false mirror_match=false",
		4: "warm=false mirror_match=true",
	} {
		prefix := fmt.Sprintf("site promotion site=%d gen=2 ", id)
		i := slices.IndexFunc(events, func(e string) bool { return strings.HasPrefix(e, prefix) })
		if i < 0 {
			t.Errorf("no promotion event for site %d", id)
		} else if got := strings.TrimPrefix(events[i], prefix); got != want {
			t.Errorf("site %d audit: %s, want %s", id, got, want)
		}
	}
	if got := reg.Counter("wan.failover.mirror_match").Value(); got != 2 {
		t.Errorf("wan.failover.mirror_match = %d, want 2", got)
	}
	if got := reg.Counter("wan.failover.mirror_mismatch").Value(); got != 2 {
		t.Errorf("wan.failover.mirror_mismatch = %d, want 2", got)
	}
}
