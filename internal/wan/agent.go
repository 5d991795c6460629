package wan

import (
	"fmt"
	"sync"
	"time"
)

// SwitchConfig models the data-plane latencies of a production router.
type SwitchConfig struct {
	// InstallLatency is the time to program one tunnel (hundreds of
	// milliseconds on production gear per §6.4; tests shrink it).
	InstallLatency time.Duration
	// RateLatency is the time to update rate-adaptation match-action
	// entries ("relatively fast", §2.1 — milliseconds), paid by a rate push
	// that carries entries and by a tunnel removal; a heartbeat pays none.
	RateLatency time.Duration
	// MaxTunnels bounds the tunnel table ("a commercial router can always
	// support tens of thousands of tunnels", §6.3).
	MaxTunnels int
}

// DefaultSwitchConfig matches the testbed's measured behaviour.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{
		InstallLatency: 250 * time.Millisecond,
		RateLatency:    2 * time.Millisecond,
		MaxTunnels:     20000,
	}
}

// SwitchAgent is the software agent on one router. Tunnel installs are
// serialized through a mutex, reproducing the production choice that
// "guarantees a consistent allocation of resource costs" (§5) and the
// resulting linear update time of Fig 11b.
//
// Rate pushes merge into the installed table (entries of tunnels a later
// table drops stay until overwritten) and are placed by their tags
// (Request.Tag, Request.Base):
//
//   - Base 0: a full table; merge it.
//   - the installed tag equals Base: a delta cut against this table; merge it.
//   - the installed tag equals Tag: a duplicate delivery, or a retry after a
//     lost response; answer OK and change nothing.
//   - anything else (the agent restarted, or a late push overtook the one
//     the delta was cut against): answer Resync and change nothing; the
//     controller re-sends the full table.
type SwitchAgent struct {
	*server // the agent's listener: Addr, and an idempotent Close

	Name string
	cfg  SwitchConfig

	mu           sync.Mutex
	tunnels      map[int][]int
	rates        map[string]float64
	rateTag      uint64 // Tag of the last applied rate push (0 = none, or untagged)
	maxGen       uint64 // highest controller generation seen (epoch fence)
	genLeader    string // leader id that claimed maxGen ("" = unnamed)
	fenceRejects int
}

// NewSwitchAgent starts an agent listening on a fresh loopback port.
func NewSwitchAgent(name string, cfg SwitchConfig) (*SwitchAgent, error) {
	a := &SwitchAgent{
		Name: name, cfg: cfg,
		tunnels: make(map[int][]int),
		rates:   make(map[string]float64),
	}
	srv, err := newServer(a.handle)
	if err != nil {
		return nil, err
	}
	a.server = srv
	return a, nil
}

// MaxGen returns the highest controller generation this agent has accepted
// a fenced request from (0 = never fenced).
func (a *SwitchAgent) MaxGen() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxGen
}

// FenceRejections returns how many requests this agent refused because they
// carried a stale controller generation.
func (a *SwitchAgent) FenceRejections() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fenceRejects
}

// NumTunnels returns the current tunnel-table size.
func (a *SwitchAgent) NumTunnels() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.tunnels)
}

// Rates returns a copy of the installed rate table.
func (a *SwitchAgent) Rates() map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]float64, len(a.rates))
	for k, v := range a.rates {
		out[k] = v
	}
	return out
}

func (a *SwitchAgent) handle(req *Request) *Response {
	// Epoch fence: a fenced request (Gen > 0) from a generation older than
	// one already seen comes from a dead controller incarnation — a delayed
	// duplicate or a zombie that lost the state-directory lock — and must
	// not mutate switch state. Gen 0 is the unfenced legacy protocol and is
	// always accepted. Two cross-site claimants can fence to the *same*
	// generation (each opened its own directory with the same floor, and no
	// shared flock exists to arbitrate), so equal generations from two
	// different named leaders tie-break to whichever claimant reached this
	// agent first; unnamed senders (Leader == "") keep the legacy
	// equal-gen-accepted behaviour.
	if req.Gen > 0 {
		a.mu.Lock()
		stale := req.Gen < a.maxGen ||
			(req.Gen == a.maxGen && req.Leader != a.genLeader && req.Leader != "" && a.genLeader != "")
		if stale {
			gen := a.maxGen
			a.fenceRejects++
			a.mu.Unlock()
			return &Response{
				Err:   fmt.Sprintf("stale controller generation %d, fenced to %d", req.Gen, gen),
				Stale: true,
				Gen:   gen,
			}
		}
		if req.Gen > a.maxGen {
			a.maxGen = req.Gen
			a.genLeader = req.Leader
		}
		a.mu.Unlock()
	}
	resp := &Response{OK: true}
	switch req.Type {
	case MsgPing:
		// nothing
	case MsgInstallTunnel:
		a.mu.Lock() // serializes installs
		if _, held := a.tunnels[req.TunnelID]; !held && len(a.tunnels) >= a.cfg.MaxTunnels {
			a.mu.Unlock()
			return &Response{Err: "tunnel table full"}
		}
		time.Sleep(a.cfg.InstallLatency)
		a.tunnels[req.TunnelID] = append([]int(nil), req.Path...)
		a.mu.Unlock()
	case MsgRemoveTunnel:
		a.mu.Lock()
		time.Sleep(a.cfg.RateLatency)
		delete(a.tunnels, req.TunnelID)
		a.mu.Unlock()
	case MsgUpdateRates:
		a.mu.Lock()
		switch {
		case req.Base == 0 || req.Base == a.rateTag:
			if len(req.Rates) > 0 { // a heartbeat touches no entry
				time.Sleep(a.cfg.RateLatency)
			}
			for k, v := range req.Rates {
				a.rates[k] = v
			}
			a.rateTag = req.Tag
		case req.Tag == a.rateTag:
			// Already applied: a duplicate, or a retry after a lost response.
		default:
			held := a.rateTag
			a.mu.Unlock()
			return &Response{
				Err:    fmt.Sprintf("rate delta cut against %016x, table is %016x", req.Base, held),
				Resync: true,
			}
		}
		a.mu.Unlock()
	default:
		return &Response{Err: fmt.Sprintf("unknown message %q", req.Type)}
	}
	return resp
}
