package core

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"

	"ntcsim/internal/dram"
	"ntcsim/internal/platform"
	"ntcsim/internal/qos"
	"ntcsim/internal/sampling"
	"ntcsim/internal/sim"
	"ntcsim/internal/thermal"
	"ntcsim/internal/workload"
)

// Activity is the core activity factor under load: the paper evaluates
// worst-case, fully loaded servers. Active cores run at zero body bias;
// the per-point optimal forward bias is a Fig. 1 technology curve, not a
// sweep input.
const Activity = 1.0

// Model is every input that decides a sweep's report bytes. It is a plain
// value: copies are independent except for the shared *platform.Spec, so
// a variant that edits the platform must copy the Spec first (as LPDDR4
// and EightCore do). Everything that decides how fast a sweep runs or what
// it reports on the side lives in Runtime.
type Model struct {
	Platform *platform.Spec
	// Sim is the simulated cluster configuration, seed included.
	Sim sim.Config
	// Fidelity names the SMARTS sampling configuration: "quick" or
	// "paper" (see SamplingFor).
	Fidelity string
	// WarmInstr is the per-core functional warmup before the first sample
	// (cache/predictor state; the paper launches from warmed checkpoints).
	WarmInstr uint64
	// SettleCycles are run after each DVFS transition before sampling.
	SettleCycles int64
	// Thermal, when set, couples core leakage to the junction temperature
	// via the electro-thermal fixed point instead of the technology's
	// calibration temperature. Near threshold the correction is tiny; at
	// the top of the DVFS range it raises core power by several percent.
	Thermal *thermal.Model
}

// fidelityWarmup returns the warmup and settle lengths a sampling
// fidelity defaults to, rejecting unknown names.
func fidelityWarmup(name string) (warmInstr uint64, settleCycles int64, err error) {
	switch name {
	case "quick":
		return 2_000_000, 20_000, nil
	case "paper":
		return 8_000_000, 100_000, nil
	}
	return 0, 0, fmt.Errorf("core: unknown fidelity %q (want quick or paper)", name)
}

// NewModel returns the paper's default platform and cluster under the
// named sampling fidelity: "quick" (or "") for the reduced-cost windows,
// "paper" for the full SMARTS windows (100K/50K cycles, 2M/400K for Data
// Serving, 95%/2% termination) and a longer warmup.
func NewModel(fidelity string) (Model, error) {
	if fidelity == "" {
		fidelity = "quick"
	}
	warm, settle, err := fidelityWarmup(fidelity)
	if err != nil {
		return Model{}, err
	}
	spec, err := platform.Default()
	if err != nil {
		return Model{}, err
	}
	return Model{
		Platform:     spec,
		Sim:          sim.DefaultConfig(),
		Fidelity:     fidelity,
		WarmInstr:    warm,
		SettleCycles: settle,
	}, nil
}

// SamplingFor returns the SMARTS configuration the model's fidelity
// selects for workload p.
func (m Model) SamplingFor(p *workload.Profile) sampling.Config {
	if m.Fidelity == "paper" {
		return sampling.PaperConfig(p)
	}
	return sampling.QuickConfig()
}

// LPDDR4 returns a copy of the model whose memory subsystem uses mobile
// DRAM — the paper's discussion-section what-if ("memory technologies that
// exhibit lower background power than DDR4, such as mobile DRAM (LPDDR4),
// could be used to increase the energy proportionality of the servers").
func (m Model) LPDDR4() Model {
	spec := *m.Platform
	spec.Memory.Timing = dram.LPDDR4()
	spec.Memory.Power = dram.LPDDR4Power()
	m.Platform = &spec
	m.Sim.DRAM.Timing = dram.LPDDR4()
	m.Sim.DRAM.Power = dram.LPDDR4Power()
	return m
}

// EightCore returns a copy of the model with 8-core clusters (paper
// Sec. II-B: the cluster size does not change the trends): the LLC grows
// with the cluster to keep the core:cache ratio, and the chip drops to
// four clusters to stay roughly iso-area.
func (m Model) EightCore() Model {
	spec := *m.Platform
	spec.Clusters = 4
	spec.CoresPerCl = 8
	m.Platform = &spec
	m.Sim.CoresPerCluster = 8
	m.Sim.LLCBanks = 8
	m.Sim.LLC.CapacityBytes = 8 << 20
	return m
}

// checkpointFingerprint hashes everything a warmed checkpoint's contents
// are a function of: the workload profile's full parameter set (not just
// its name — two profiles sharing a Name, or an edited profile, must not
// share cached state), the cluster configuration including the seed, the
// platform's structural fields, the baseline frequency, and the warmup
// and settle lengths. FNV-1a over the gob encoding of those values; gob
// is deterministic for a fixed encode order, and the plain-struct configs
// carry no functions or unexported state (TestModelFieldsClassified
// enforces both). The other Model fields (Fidelity, Thermal, the power
// models) only act after the checkpoint is taken.
//
// The fingerprint keys the checkpoint file name AND is sealed into the
// file header, so a stale file is never restored even if it is copied to
// a matching name.
func (m Model) checkpointFingerprint(p *workload.Profile) (uint64, error) {
	h := fnv.New64a()
	enc := gob.NewEncoder(h)
	for _, v := range []any{
		p,
		m.Sim,
		m.Platform.Clusters,
		m.Platform.CoresPerCl,
		m.Platform.Memory,
		float64(qos.BaselineFreqHz),
		m.WarmInstr,
		m.SettleCycles,
	} {
		if err := enc.Encode(v); err != nil {
			return 0, fmt.Errorf("core: fingerprinting checkpoint config: %w", err)
		}
	}
	return h.Sum64(), nil
}
