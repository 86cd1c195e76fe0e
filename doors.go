// Package doors reproduces the measurement system of "Behind Closed
// Doors: A Network Tale of Spoofing, Intrusion, and False DNS Security"
// (Deccio et al., IMC 2020) against a deterministic simulated Internet.
//
// The paper surveys destination-side source address validation (DSAV)
// by sending DNS queries with spoofed, target-internal source addresses
// to millions of resolvers and watching for induced
// recursive-to-authoritative queries at experimenter-controlled
// authoritative servers. This package wires the full pipeline together:
//
//	pop := ditl.Generate(params)               // synthetic DITL target world
//	survey, _ := doors.RunSurveyOn(pop, cfg)   // build, probe, monitor, analyze
//	fmt.Println(survey.Report.V4.ASFraction()) // ≈0.49 in the paper
//
// RunSurvey does both steps from cfg.Population.
//
// The engine itself lives in internal/campaign: a survey is one
// campaign (an ordered phase list) run by campaign.Run, which owns
// sharding, the chaos window, invariant merging, and the canonical
// result merge. SurveyConfig is campaign.Config and Survey is
// campaign.Result. A nil SurveyConfig.Campaign runs the default survey
// phase list; another (e.g. the inbound-SAV-only scan) runs over the
// same engine.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package doors

import (
	"repro/internal/campaign"
	"repro/internal/ditl"
)

// SurveyConfig parameterizes a full DSAV survey: the campaign engine's
// Config.
type SurveyConfig = campaign.Config

// Survey is a completed run: the campaign runner's Result.
type Survey = campaign.Result

// RunSurvey surveys the population cfg.Population describes: it builds
// the world, runs the probing experiment to completion, and analyzes
// the authoritative logs. It never materializes the population: shards
// synthesize their ASes on demand from a ditl.View, the ASes
// ditl.Generate would build, so cfg.Stream and cfg.Fold decide only
// what outlives a shard.
func RunSurvey(cfg SurveyConfig) (*Survey, error) {
	return RunSurveyOn(ditl.NewView(cfg.Population), cfg)
}

// RunSurveyOn runs a survey over an existing population (so ablations
// can share one population across world variants): campaign.Run, which
// owns sharding, probe-window derivation, chaos, invariant merging, and
// the canonical deterministic merge.
func RunSurveyOn(pop ditl.Pop, cfg SurveyConfig) (*Survey, error) {
	return campaign.Run(pop, cfg)
}
