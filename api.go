package prete

import (
	"prete/internal/core"
	"prete/internal/ml"
	"prete/internal/optical"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
	"prete/internal/trace"
)

// Domain types re-exported from the implementation packages so the examples
// can hold them without importing internal paths; System builds the rest.
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

// Delivered returns the bandwidth a flow receives under a failure scenario
// given a plan.
func Delivered(p *Plan, f FlowID, demand float64, cut map[FiberID]bool) float64 {
	return te.Delivered(p, f, demand, cut)
}
