package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"prete/internal/obs"
	"prete/internal/par"
	"prete/internal/scenario"
	"prete/internal/sim"
)

// runConfig is one benchmark run.
type runConfig struct {
	spec    spec
	seed    uint64
	seconds float64
	traced  bool
	// stateRoot is where state directories are created (and removed).
	stateRoot string
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// pinning skips the reference check: the run's outputs are about to
	// become the reference.
	pinning bool
	// smoke shrinks the run to what a test can afford: one set-up, a token
	// predictor and restart history, and smokeOps ops per measured phase.
	smoke bool
}

const smokeOps = 2

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is everything a run produced.
type runOutput struct {
	metrics           map[string]metric
	attempted, failed int
	notes             []string
	spans             []span
	ref               reference // what this run would commit as its reference
}

// phase is the measured part of a run: the ops, their wall times, and what
// the traced run harvests around them.
type phase struct {
	ms         []float64 // wall per op
	allocBytes uint64    // allocated inside ops
	// Per-op registry deltas (traced runs).
	lpMS, rpcUS, fsyncMS []float64
	tickNS               []int64
	deltas               map[scenario.DeltaClass]int
	setSize              int
	predicts             int
	tables               []*table
}

func (p *phase) n() int { return len(p.ms) }

// heapAllocs reads the cumulative bytes allocated, without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// probe reads the registry timers whose per-op deltas the layer table
// needs: LP time inside solves, RPC latency, journal fsync.
type probe struct {
	lp            lpClock
	rpc, fsync    *obs.Timer
	lp0           time.Duration
	rpc0, fsync0  time.Duration
	rpcN0, fsyncN int64
}

func newProbe(reg *obs.Registry) *probe {
	return &probe{lp: newLPClock(reg), rpc: reg.Timer("wan.rpc.latency"), fsync: reg.Timer("persist.fsync")}
}

func (p *probe) before() {
	p.lp0, p.rpc0, p.fsync0 = p.lp.total(), p.rpc.Total(), p.fsync.Total()
	p.rpcN0, p.fsyncN = p.rpc.Count(), p.fsync.Count()
}

// after appends the op's deltas: LP busy ms, mean RPC us, mean fsync ms.
func (p *probe) after(ph *phase) {
	ph.lpMS = append(ph.lpMS, ms(p.lp.total()-p.lp0))
	ph.rpcUS = append(ph.rpcUS, 1e3*meanMS(p.rpc.Total()-p.rpc0, p.rpc.Count()-p.rpcN0))
	ph.fsyncMS = append(ph.fsyncMS, meanMS(p.fsync.Total()-p.fsync0, p.fsync.Count()-p.fsyncN))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func meanMS(total time.Duration, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return ms(total) / float64(n)
}

// run executes one benchmark run.
func run(cfg runConfig) (*runOutput, error) {
	in, err := generate(cfg.spec, cfg.seed, cfg.smoke)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	var ref *reference
	if !cfg.pinning {
		if ref, err = loadReference(cfg.spec.name, cfg.seed); err != nil {
			return nil, err
		}
	}
	out := &runOutput{metrics: map[string]metric{}, ref: reference{Workload: cfg.spec.name, Seed: cfg.seed}}
	chk := &checker{}
	if !cfg.traced {
		err = runUntraced(cfg, in, ref, chk, out)
	} else {
		err = runTraced(cfg, in, ref, chk, out)
	}
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed, out.notes = chk.attempted, chk.failed, chk.notes
	return out, nil
}

// system is a set-up program instance of any kind.
type system struct {
	site   *site    // online and restart workloads
	env    *sim.Env // offline workload
	serial *table   // offline: the Parallelism-1 table that ends set-up
	// reg and rec are the traced run's registry and span recorder (nil
	// untraced); an online system shares them with its site.
	reg *obs.Registry
	rec *recorder
}

func (sys *system) close() {
	if sys.site != nil {
		sys.site.close()
	}
	if sys.env != nil && sys.reg != nil {
		par.SetMetrics(nil)
	}
}

// setUp builds a system and runs its warm-up; the caller times it.
func setUp(cfg runConfig, in *inputs, traced bool) (*system, error) {
	sys := &system{}
	if in.spec.kind == kindOffline {
		env, err := sim.BuildEnv(in.spec.topo, profileSeed, in.simCfg)
		if err != nil {
			return nil, err
		}
		sys.env = env
		if sys.serial, err = evalTable(in, env, 1, nil, nil); err != nil {
			return nil, err
		}
		if traced {
			// The worker pool has no per-call hook: its registry is global.
			sys.reg, sys.rec = obs.NewRegistry(), newRecorder()
			par.SetMetrics(sys.reg)
		}
		return sys, nil
	}
	s, err := newSite(in, cfg.stateRoot, traced)
	if err != nil {
		return nil, err
	}
	sys.site, sys.reg, sys.rec = s, s.reg, s.rec
	rec := s.rec
	s.rec = nil // the warm-up is not part of the trace
	defer func() { s.rec = rec }()
	if _, err := s.epoch(in.warmUpInput()); err != nil {
		sys.close()
		return nil, fmt.Errorf("warm-up epoch: %w", err)
	}
	if in.spec.kind == kindRestart {
		// Journal the history a restart recovers from, then release the
		// directory to the restarted controllers.
		for i := 0; i < in.spec.journaled; i++ {
			if _, err := s.epoch(in.epochInput(i)); err != nil {
				sys.close()
				return nil, fmt.Errorf("journaling epoch %d: %w", i, err)
			}
		}
		if err := s.ctl.ReleaseState(); err != nil {
			sys.close()
			return nil, err
		}
	}
	return sys, nil
}

// measure runs ops against sys until seconds have passed, checking every
// op's outputs. Storm sweeps are never cut short: every run times the same
// mix of fibers, so its percentiles describe the same population.
func measure(cfg runConfig, in *inputs, sys *system, seconds float64, ref *reference, chk *checker, out *runOutput) (*phase, error) {
	ph := &phase{deltas: map[scenario.DeltaClass]int{}}
	var pr *probe
	if sys.reg != nil {
		pr = newProbe(sys.reg)
	}
	cycle := in.cycle()
	verifier := &planVerifier{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if cfg.smoke {
			if i >= smokeOps {
				break
			}
		} else if i > 0 && i%cycle == 0 && !time.Now().Before(deadline) {
			break
		}
		if pr != nil {
			pr.before()
		}
		a0 := heapAllocs()
		var dur time.Duration
		switch in.spec.kind {
		case kindOnline:
			r, err := sys.site.epoch(in.epochInput(i))
			if err != nil {
				return nil, fmt.Errorf("epoch %d: %w", i, err)
			}
			ph.allocBytes += heapAllocs() - a0
			dur = r.dur
			ph.tickNS = append(ph.tickNS, r.tickNS...)
			ph.deltas[r.delta]++
			ph.setSize = len(r.set.Scenarios)
			ph.predicts += r.predicts
			chk.op(fmt.Sprintf("epoch %d", i), verifier.epoch(sys.site, r, i, ref)...)
			if i < refOps && len(out.ref.Phi) == i {
				out.ref.Phi = append(out.ref.Phi, r.phis())
			}
		case kindOffline:
			t, err := evalTable(in, sys.env, 0, sys.reg, sys.rec)
			if err != nil {
				return nil, fmt.Errorf("table %d: %w", i, err)
			}
			ph.allocBytes += heapAllocs() - a0
			dur = t.dur
			ph.tables = append(ph.tables, t)
			chk.op(fmt.Sprintf("table %d", i), checkTable(in, t, sys.serial, ref)...)
			if i == 0 {
				out.ref.Tables = map[string]availRef{}
				for cell, a := range t.avail {
					out.ref.Tables[cell] = availRef{Min: a.Min, Mean: a.Mean}
				}
			}
		case kindRestart:
			r, err := sys.site.restart(sys.site.leaderDir())
			if err != nil {
				return nil, fmt.Errorf("restart %d: %w", i, err)
			}
			ph.allocBytes += heapAllocs() - a0
			dur = r.dur
			chk.op(fmt.Sprintf("restart %d", i), sys.site.checkRestart(r)...)
		}
		if pr != nil {
			pr.after(ph)
		}
		ph.ms = append(ph.ms, ms(dur))
	}
	if in.spec.kind == kindOnline {
		sys.site.final(chk, ph.n())
	}
	return ph, nil
}

// runUntraced measures the end-to-end metrics: tracing off, Metrics nil.
func runUntraced(cfg runConfig, in *inputs, ref *reference, chk *checker, out *runOutput) error {
	var sys *system
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		if sys, err = setUp(cfg, in, false); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer sys.close()
	ph, err := measure(cfg, in, sys, cfg.seconds, ref, chk, out)
	if err != nil {
		return err
	}
	var total float64
	for _, v := range ph.ms {
		total += v
	}
	sorted := sortedCopy(ph.ms)
	m := out.metrics
	m["setup_s"] = metric{median(setupS), "s"}
	m["op_p50_ms"] = metric{percentile(sorted, 0.5), "ms"}
	m["op_tail_ms"] = metric{percentile(sorted, in.spec.tail), "ms"}
	m["ops_per_s"] = metric{float64(ph.n()) / (total / 1e3), "1/s"}
	m["alloc_mb_per_op"] = metric{float64(ph.allocBytes) / float64(ph.n()) / (1 << 20), "MB"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return nil
}

// cycle is the number of distinct inputs the run's ops rotate through:
// storm's fibers, 1 elsewhere (every op of the other workloads is
// statistically the same op). A run only ever times whole cycles, so its
// percentiles always rank the same mix.
func (in *inputs) cycle() int {
	if in.spec.kind == kindOnline && in.spec.mode == modeStorm {
		return len(in.order)
	}
	return 1
}

// percentile returns the p-quantile of sorted (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the median of vs without reordering it.
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	if n := len(s); n%2 == 0 && n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return percentile(s, 0.5)
}
