package prete

import (
	"prete/internal/core"
	"prete/internal/ml"
	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/persist"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/sim"
	"prete/internal/te"
	"prete/internal/topology"
	"prete/internal/trace"
	"prete/internal/wan"
)

// Domain types re-exported from the implementation packages so downstream
// code can hold them without importing internal paths.
type (
	// Network is the two-layer WAN graph (fibers + IP links).
	Network = topology.Network
	// Node is a WAN site.
	Node = topology.Node
	// Fiber is a physical fiber span.
	Fiber = topology.Fiber
	// Link is a directed IP link.
	Link = topology.Link
	// FiberID identifies a fiber.
	FiberID = topology.FiberID
	// LinkID identifies an IP link.
	LinkID = topology.LinkID
	// NodeID identifies a site.
	NodeID = topology.NodeID

	// Flow is a source-destination demand pair.
	Flow = routing.Flow
	// FlowID identifies a flow.
	FlowID = routing.FlowID
	// Tunnel is an end-to-end path for a flow.
	Tunnel = routing.Tunnel
	// TunnelID identifies a tunnel.
	TunnelID = routing.TunnelID
	// TunnelSet is the per-flow tunnel table.
	TunnelSet = routing.TunnelSet

	// Demands is the per-flow demand matrix (Gbps).
	Demands = te.Demands
	// Allocation maps tunnels to allocated bandwidth (the a_{f,t} output).
	Allocation = te.Allocation
	// Plan is one epoch's TE decision.
	Plan = te.Plan

	// ClassSpec is an ordered set of SLO tiers (latency-critical first)
	// splitting the demand matrix for the strict-priority classed solve.
	// Parse one from "name:share:weight[:policy],..." with ParseClassSpec.
	ClassSpec = te.ClassSpec
	// ClassTier is one SLO tier: name, demand share, objective weight, and
	// degradation policy.
	ClassTier = te.Tier
	// TierPolicy says how the admission ladder treats a tier under
	// degradation: protect, defer, or shed.
	TierPolicy = te.TierPolicy
	// ClassedResult is the per-tier output of a strict-priority classed
	// solve, including each tier's predicted uncarriable fraction.
	ClassedResult = core.ClassedResult
	// AdmissionDecision is one predictive admission-ladder tick: the exact
	// per-tier admitted/shed/deferred split of offered traffic.
	AdmissionDecision = wan.AdmissionDecision

	// Sample is a per-second optical telemetry observation.
	Sample = optical.Sample
	// Features are the degradation features fed to the predictor.
	Features = optical.Features
	// FiberState is healthy/degraded/cut.
	FiberState = optical.State

	// DegradationSignal is a detected degradation with its predicted
	// failure probability.
	DegradationSignal = core.DegradationSignal
	// EpochPlan is the full PreTE output for a TE period.
	EpochPlan = core.EpochPlan

	// Predictor estimates the failure probability of a degradation event.
	Predictor = ml.Predictor

	// ScenarioOptions bounds failure-scenario enumeration.
	ScenarioOptions = scenario.Options

	// Trace is a synthetic year-scale optical event history.
	Trace = trace.Trace
	// LabeledExample is one (features, failed) training sample.
	LabeledExample = trace.LabeledExample

	// JournalReplicator ships a state directory's journal records and
	// snapshots to remote appliers with exact shipped/acked/resent
	// accounting (internal/persist).
	JournalReplicator = persist.Replicator
	// JournalApplier applies a replicated record stream into a local state
	// directory exactly once per sequence number.
	JournalApplier = persist.Applier
	// ReplicationStats is a replicator's shipping accounting snapshot
	// (shipped = acked + inflight + resent).
	ReplicationStats = persist.ReplStats
	// JournalTailStats is a journal tailer's poll/record/dead-file
	// accounting, including files abandoned after corruption.
	JournalTailStats = persist.TailStats

	// SiteSet manages standby controller sites: journal replication
	// over the network, time-bounded leases, and fenced failover.
	SiteSet = wan.SiteSet
	// SiteOptions tunes a SiteSet.
	SiteOptions = wan.SiteOptions
	// SiteStatus is a point-in-time snapshot of one standby site.
	SiteStatus = wan.SiteStatus
	// SitePromotion is the outcome of a cross-site takeover.
	SitePromotion = wan.SitePromotion
	// LeaderLease is a time-bounded leadership lease on a logical clock.
	LeaderLease = wan.Lease
	// LogicalClock is the deterministic tick source leases run on.
	LogicalClock = wan.LogicalClock

	// MetricsRegistry is the observability registry (internal/obs): a
	// concurrency-safe set of counters, gauges, histograms, and stage timers
	// with deterministic snapshots. A nil registry disables all
	// instrumentation at zero cost.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time export of a registry.
	MetricsSnapshot = obs.Snapshot
)

// Fiber state values.
const (
	Healthy  = optical.Healthy
	Degraded = optical.Degraded
	Cut      = optical.Cut
)

// LoadTopology returns a built-in topology: "B4", "IBM", or "TWAN".
func LoadTopology(name string) (*Network, error) { return topology.ByName(name) }

// NewNetwork assembles a custom two-layer topology, validating fiber and
// link references.
func NewNetwork(name string, nodes []Node, fibers []Fiber, links []Link) (*Network, error) {
	return topology.New(name, nodes, fibers, links)
}

// DefaultFlows derives the evaluation flow set (one per directed IP
// adjacency, reproducing Table 3's tunnel counts).
func DefaultFlows(net *Network) []Flow { return routing.Flows(net) }

// BuildTunnels constructs perFlow tunnels per flow using k-shortest and
// fiber-disjoint routing (§4.2).
func BuildTunnels(net *Network, flows []Flow, perFlow int) (*TunnelSet, error) {
	return routing.BuildTunnels(net, flows, perFlow)
}

// GenerateTrace synthesizes a production-shaped optical event history over
// the topology's fibers (see internal/trace for the calibrated shapes).
func GenerateTrace(net *Network, seed uint64, days int) (*Trace, error) {
	cfg := trace.DefaultConfig(seed)
	if days > 0 {
		cfg.Days = days
	}
	return trace.Generate(cfg, net)
}

// TrainPredictor fits the paper's MLP (Appendix A.2) on labeled
// degradation episodes.
func TrainPredictor(train []LabeledExample, seed uint64) (Predictor, error) {
	return ml.TrainNN(train, ml.DefaultNNConfig(seed))
}

// EvaluatePredictor reports precision/recall/F1/accuracy on a test set.
func EvaluatePredictor(p Predictor, test []LabeledExample) (precision, recall, f1, accuracy float64) {
	c := ml.Evaluate(p, test)
	return c.Precision(), c.Recall(), c.F1(), c.Accuracy()
}

// NewEvaluationEnv builds the §6 large-scale evaluation environment for a
// named topology.
func NewEvaluationEnv(name string, seed uint64) (*sim.Env, sim.Config, error) {
	cfg := sim.DefaultConfig()
	env, err := sim.BuildEnv(name, seed, cfg)
	return env, cfg, err
}

// EvaluateScheme measures a TE scheme's availability at a demand scale in
// an evaluation environment. Scheme names: ECMP, FFC-1, FFC-2, TeaVar,
// ARROW, Flexile, Oracle, PreTE, PreTE-naive.
func EvaluateScheme(env *sim.Env, cfg sim.Config, scheme string, scale float64) (sim.Availability, error) {
	return sim.NewEvaluator(env, cfg).Evaluate(scheme, scale)
}

// Delivered returns the bandwidth a flow receives under a failure scenario
// given a plan.
func Delivered(p *Plan, f FlowID, demand float64, cut map[FiberID]bool) float64 {
	return te.Delivered(p, f, demand, cut)
}

// NewMetricsRegistry returns an empty observability registry. Hand it to
// Config.Metrics (or sim.Config.Metrics, wan.Controller.Metrics, ...) to
// collect counters and stage timings; results are unaffected.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultClassSpec returns the built-in three-tier SLO spec:
// lc:0.2:100:protect, std:0.5:10:defer, bulk:0.3:1:shed.
func DefaultClassSpec() *ClassSpec { return te.DefaultClassSpec() }

// ParseClassSpec parses an SLO tier spec of the form
// "name:share:weight[:policy],..." ("default" selects DefaultClassSpec,
// "" selects nil — classless operation).
func ParseClassSpec(s string) (*ClassSpec, error) { return te.ParseClassSpec(s) }

// NewSiteSet builds the standby controller sites of the leader whose
// state directory is leaderDir: each site applies the leader's replicated
// journal into its own directory under sitesRoot and promotes behind a
// time-bounded lease on leader silence (see internal/wan).
func NewSiteSet(leaderDir, sitesRoot, leaseAddr string, agents map[string]string, opt SiteOptions) (*SiteSet, error) {
	return wan.NewSiteSet(leaderDir, sitesRoot, leaseAddr, agents, opt)
}

// EncodeReplFrame frames one journal record for replication shipping; the
// wire framing is byte-identical to the on-disk record framing, so a CRC
// check at the receiver covers both.
func EncodeReplFrame(seq uint64, body []byte) []byte { return persist.EncodeReplFrame(seq, body) }

// DecodeReplFrame validates and splits a replication frame.
func DecodeReplFrame(frame []byte) (seq uint64, body []byte, err error) {
	return persist.DecodeReplFrame(frame)
}
