package core

import (
	"fmt"

	"ntcsim/internal/qos"
	"ntcsim/internal/sampling"
	"ntcsim/internal/sim"
	"ntcsim/internal/workload"
)

// InterferenceReport quantifies the co-scheduling interference that makes
// the paper rule out workload co-location for latency-critical services
// (Sec. III-B1: "co-scheduling workloads on the same server is often not
// possible as these applications utilize most of the memory and any
// interference can lead to unacceptable degradations in QoS").
type InterferenceReport struct {
	Victim    string
	Aggressor string
	FreqHz    float64

	// SoloUIPC is the victim's per-core user IPC running alone (all four
	// cluster cores run the victim).
	SoloUIPC float64
	// MixedUIPC is the victim's per-core user IPC when half the cluster
	// runs the aggressor.
	MixedUIPC float64
	// Slowdown = SoloUIPC / MixedUIPC (>1 means interference hurts).
	Slowdown float64
	// NormalizedSolo / NormalizedMixed are the victim's 99th-percentile
	// latencies normalized to its QoS limit (Fig. 2 metric), without and
	// with the co-runner, both relative to the 2GHz solo baseline.
	NormalizedSolo  float64
	NormalizedMixed float64
	// QoSViolated reports that the victim was QoS-feasible alone at this
	// frequency but is pushed over the limit by interference — the paper's
	// argument against co-scheduling.
	QoSViolated bool
}

// Interference co-schedules aggressor on half of the victim's cluster and
// measures the victim's slowdown and QoS impact at the given frequency.
func (m Model) Interference(victim, aggressor *workload.Profile, freqHz float64) (InterferenceReport, error) {
	if victim.Class != workload.ScaleOut {
		return InterferenceReport{}, fmt.Errorf("core: interference analysis targets scale-out victims, got %s", victim.Name)
	}
	cfg := m.SamplingFor(victim)

	// Solo runs: measure the 2GHz baseline first, then retarget the same
	// warmed cluster to the analysis frequency.
	solo, err := sim.NewCluster(m.Sim, victim, qos.BaselineFreqHz)
	if err != nil {
		return InterferenceReport{}, err
	}
	solo.FastForward(m.WarmInstr)
	solo.Run(m.SettleCycles)
	baseRes, err := sampling.Run(solo, cfg)
	if err != nil {
		return InterferenceReport{}, err
	}
	baseUIPC := victimUIPC(baseRes, len(solo.Profiles()), victim, solo.Profiles())

	solo.SetFrequency(freqHz)
	solo.Run(m.SettleCycles)
	soloRes, err := sampling.Run(solo, cfg)
	if err != nil {
		return InterferenceReport{}, err
	}
	soloUIPC := victimUIPC(soloRes, len(solo.Profiles()), victim, solo.Profiles())

	// Mixed run: cores 0-1 victim, cores 2-3 aggressor.
	n := m.Sim.CoresPerCluster
	profiles := make([]*workload.Profile, n)
	for i := range profiles {
		if i < n/2 {
			profiles[i] = victim
		} else {
			profiles[i] = aggressor
		}
	}
	mixed, err := sim.NewMixedCluster(m.Sim, profiles, freqHz)
	if err != nil {
		return InterferenceReport{}, err
	}
	mixed.FastForward(m.WarmInstr)
	mixed.Run(m.SettleCycles)
	mixedRes, err := sampling.Run(mixed, cfg)
	if err != nil {
		return InterferenceReport{}, err
	}
	mixedUIPC := victimUIPC(mixedRes, n, victim, profiles)

	rep := InterferenceReport{
		Victim:    victim.Name,
		Aggressor: aggressor.Name,
		FreqHz:    freqHz,
		SoloUIPC:  soloUIPC,
		MixedUIPC: mixedUIPC,
	}
	if mixedUIPC > 0 {
		rep.Slowdown = soloUIPC / mixedUIPC
	}
	// QoS: the paper's latency scaling against the 2GHz solo baseline.
	baseUIPS := baseUIPC * qos.BaselineFreqHz
	rep.NormalizedSolo = qos.Normalized(victim, baseUIPS, soloUIPC*freqHz)
	rep.NormalizedMixed = qos.Normalized(victim, baseUIPS, mixedUIPC*freqHz)
	rep.QoSViolated = rep.NormalizedSolo <= 1 && rep.NormalizedMixed > 1
	return rep, nil
}

// victimUIPC averages per-core UIPC over the cores running the victim.
func victimUIPC(res sampling.Result, cores int, victim *workload.Profile, assignment []*workload.Profile) float64 {
	var sum float64
	var n int
	for _, m := range res.Samples {
		for i, cs := range m.PerCore {
			if i < len(assignment) && assignment[i] == victim {
				if cs.Cycles > 0 {
					sum += float64(cs.UserInstructions) / float64(cs.Cycles)
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
