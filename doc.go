// Package prete is a from-scratch reproduction of "PreTE: Traffic
// Engineering with Predictive Failures" (SIGCOMM 2025): a WAN traffic
// engineering system that watches per-second optical telemetry for fiber
// degradation signals, predicts imminent fiber cuts with a small neural
// network, reactively pre-establishes detour tunnels (Algorithm 1), and
// re-optimizes traffic allocation against failure scenarios whose
// probabilities are calibrated by the prediction (Eqn. 1), solved with
// Benders decomposition.
//
// The root package is the stable facade: the System type wires the
// telemetry -> prediction -> tunnel update -> optimization pipeline of the
// paper's Fig 8 as one ingest pipeline feeding one controller loop
// (internal/core's Loop, which the §5 testbed runs too) at the paper's
// β = 0.99, and the re-exported constructors expose the substrates
// (topologies, the synthetic production trace and the model zoo) that the
// examples are built on.
//
// Quick start:
//
//	net, _ := prete.LoadTopology("B4")
//	sys, _ := prete.NewSystem(net, prete.DefaultConfig())
//	// feed telemetry samples; PlanEpoch when the TE period ticks
//	plan, _ := sys.PlanEpoch(demands)
//
// See examples/quickstart for the full walkthrough, ARCHITECTURE.md for the
// package map and the parallel execution engine (internal/par and the
// Parallelism knobs), and DESIGN.md for the system inventory.
package prete
