package workload

import (
	"fmt"

	"ntcsim/internal/rng"
)

// Kind classifies a dynamic instruction.
type Kind uint8

const (
	// ALU is a single-cycle integer operation.
	ALU Kind = iota
	// FP is a multi-cycle floating-point operation.
	FP
	// Load reads memory.
	Load
	// Store writes memory.
	Store
	// Branch is a conditional branch.
	Branch
)

func (k Kind) String() string {
	switch k {
	case ALU:
		return "alu"
	case FP:
		return "fp"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return "?"
	}
}

// Instr is one dynamic instruction of the synthetic trace.
type Instr struct {
	Kind Kind
	// PC is the instruction address (4-byte instructions).
	PC uint64
	// Addr is the data address for loads and stores.
	Addr uint64
	// DepDist is the distance (in dynamic instructions) to the most recent
	// producer this instruction depends on; 0 means no register dependency.
	DepDist int
	// BranchID identifies the static branch site (branches only).
	BranchID int32
	// Taken is the branch outcome (branches only).
	Taken bool
	// OS marks operating-system execution: counted in cycles but excluded
	// from user instructions (UIPC, paper Sec. IV).
	OS bool
}

// Per-core address-space layout. Each core owns a 16GB window keyed by its
// global core ID, matching the 64GB / 4-cores-per-cluster organization:
//
//	[0, dataTop)          data (hot region first, then cold/stream)
//	[codeBase, +CodeBytes) application code
//	[osCodeBase, +osCode)  OS text (shared layout, per-core copy)
//	[osDataBase, ...)      OS data
const (
	coreWindowBits = 34 // 16GB per core
	codeBase       = uint64(12) << 30
	osCodeBase     = uint64(13) << 30
	osCodeBytes    = uint64(2) << 20
	osDataBase     = uint64(14) << 30
	osDataBytes    = uint64(512) << 10
	instrBytes     = 4
)

// Fixed draw thresholds: the OS data tiers and the backward share of near
// jumps.
var (
	osStackCut  = rng.Cut(0.60)
	osHotCut    = rng.Cut(0.88)
	backwardCut = rng.Cut(0.6)
)

// Generator produces the deterministic instruction stream of one core
// running one workload. Two generators with the same (profile, coreID,
// seed stream) produce identical traces.
type Generator struct {
	p    *Profile
	base uint64 // core window base address

	mix  *rng.Stream
	dep  *rng.Stream
	brs  *rng.Stream
	mem  *rng.Stream
	code *rng.Stream
	os   *rng.Stream

	branchPick *rng.Zipf
	biases     *rng.BetaCuts // per-branch taken-bias thresholds
	depDist    *rng.GeometricTable

	// Per-instruction invariants of p, hoisted out of Next. The
	// probabilities are computed with the same operations in the same
	// order as the inline expressions they replace and stored as
	// rng.Cut thresholds on 53-bit draws, so every comparison decides as
	// the float comparison it replaces.
	mixLoad, mixStore, mixBranch, mixFP uint64 // cumulative instruction mix
	tierStack, tierHot, tierStream      uint64 // cumulative data tiers
	osEnter, farJump                    uint64
	hotChunkLines, coldChunkLines       uint64

	coldZipf   *rng.Zipf
	hotZipf    *rng.Zipf
	coldLines  uint64
	hotLines   uint64
	stackLines uint64
	streamPos  uint64
	codeTarget *rng.Zipf
	codeLines  uint64

	pc       uint64
	inOS     bool
	osLeft   int
	osPC     uint64
	produced uint64
}

// NewGenerator builds the generator for profile p on global core coreID,
// deriving all internal streams from seed. The generator caches values
// derived from p, so p must not change afterwards.
func NewGenerator(p *Profile, coreID int, seed *rng.Stream) *Generator {
	if p.DataBytes == 0 || p.CodeBytes == 0 {
		panic(fmt.Sprintf("workload %q: zero footprint", p.Name))
	}
	root := seed.Derive(fmt.Sprintf("%s/core%d", p.Name, coreID))
	g := &Generator{
		p:    p,
		base: uint64(coreID) << coreWindowBits,
		mix:  root.Derive("mix"),
		dep:  root.Derive("dep"),
		brs:  root.Derive("branch"),
		mem:  root.Derive("mem"),
		code: root.Derive("code"),
		os:   root.Derive("os"),
	}
	g.mixLoad = rng.Cut(p.LoadFrac)
	g.mixStore = rng.Cut(p.LoadFrac + p.StoreFrac)
	g.mixBranch = rng.Cut(p.LoadFrac + p.StoreFrac + p.BranchFrac)
	g.mixFP = rng.Cut(p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac)
	g.tierStack = rng.Cut(p.StackFrac)
	g.tierHot = rng.Cut(p.StackFrac + p.HotFrac)
	g.tierStream = rng.Cut(p.StackFrac + p.HotFrac + p.StreamFrac)
	// Enter probability chosen so mean user-run length yields OSFrac.
	g.osEnter = rng.Cut(p.OSFrac / ((1 - p.OSFrac) * p.OSBurst))
	g.farJump = rng.Cut(p.CodeJumpP)
	g.depDist = rng.NewGeometricTable(p.DepGeomP)
	g.branchPick = rng.NewZipf(root.Derive("branch-pick"), p.StaticBranches, p.BranchZipf)
	g.biases = rng.NewBetaCuts(root.Derive("biases"), p.StaticBranches, p.BiasAlpha, p.BiasBeta)
	const line = 64
	g.stackLines = p.StackBytes / line
	if g.stackLines == 0 {
		g.stackLines = 1
	}
	g.hotLines = p.HotBytes / line
	if g.hotLines == 0 {
		g.hotLines = 1
	}
	cold := p.DataBytes - p.HotBytes - p.StackBytes
	if p.DataBytes < p.HotBytes+p.StackBytes {
		cold = line
	}
	g.coldLines = cold / line
	if g.coldLines == 0 {
		g.coldLines = 1
	}
	// The cold Zipf table is capped; ranks index coarse 256-line chunks so
	// multi-GB footprints stay tractable while preserving skew.
	chunks := int(g.coldLines / 256)
	if chunks < 1 {
		chunks = 1
	}
	if chunks > 1<<16 {
		chunks = 1 << 16
	}
	g.coldZipf = rng.NewZipf(root.Derive("cold"), chunks, p.ColdZipf)
	// The hot region is itself skewed (stack frames, hot metadata), giving
	// the L1-level locality real applications exhibit. Ranks index 4-line
	// chunks.
	hotChunks := int(g.hotLines / 4)
	if hotChunks < 1 {
		hotChunks = 1
	}
	if hotChunks > 1<<15 {
		hotChunks = 1 << 15
	}
	g.hotZipf = rng.NewZipf(root.Derive("hot"), hotChunks, p.HotZipf)
	g.coldChunkLines = max(g.coldLines/uint64(chunks), 1)
	g.hotChunkLines = max(g.hotLines/uint64(hotChunks), 1)
	g.codeLines = p.CodeBytes / line
	codeChunks := int(g.codeLines)
	if codeChunks > 1<<14 {
		codeChunks = 1 << 14
	}
	if codeChunks < 1 {
		codeChunks = 1
	}
	g.codeTarget = rng.NewZipf(root.Derive("code-target"), codeChunks, p.CodeZipfTheta)
	g.pc = g.base + codeBase
	g.osPC = g.base + osCodeBase
	return g
}

// Tables is a handle on a generator's immutable lookup tables: the Zipf
// CDFs with their guide tables, the branch biases and the dependency
// thresholds. Generators built for the same inputs share these tables for
// as long as a generator or a handle holds them, so keeping a handle
// spares later generators the rebuild.
type Tables struct {
	zipfs  [4]*rng.Zipf
	biases *rng.BetaCuts
	dep    *rng.GeometricTable
}

// Tables returns the handle on g's lookup tables.
func (g *Generator) Tables() Tables {
	return Tables{[4]*rng.Zipf{g.branchPick, g.coldZipf, g.hotZipf, g.codeTarget}, g.biases, g.depDist}
}

// Profile returns the generator's workload profile.
func (g *Generator) Profile() *Profile { return g.p }

// Produced returns how many instructions have been generated.
func (g *Generator) Produced() uint64 { return g.produced }

// Next fills in the next dynamic instruction.
func (g *Generator) Next(in *Instr) {
	g.produced++
	g.maybeToggleOS()
	*in = Instr{OS: g.inOS}

	r := g.mix.Uint53()
	switch {
	case r < g.mixLoad:
		in.Kind = Load
		in.Addr = g.dataAddr()
	case r < g.mixStore:
		in.Kind = Store
		in.Addr = g.dataAddr()
	case r < g.mixBranch:
		in.Kind = Branch
		id := g.branchPick.Next()
		in.BranchID = int32(id)
		in.Taken = g.brs.Uint53() < g.biases.At(id)
	case r < g.mixFP:
		in.Kind = FP
	default:
		in.Kind = ALU
	}

	// Register dependency distance: geometric with the profile's ILP
	// parameter, capped so it stays inside any realistic window. The
	// table returns Geometric(DepGeomP) exactly up to 64 and 65 beyond.
	d := g.depDist.Next(g.dep)
	if d > 64 {
		d = 0 // effectively independent
	}
	in.DepDist = d

	in.PC = g.nextPC(in)
}

// maybeToggleOS switches between user and OS execution in bursts sized so
// the long-run OS fraction matches the profile.
func (g *Generator) maybeToggleOS() {
	if g.p.OSFrac <= 0 {
		return
	}
	if g.inOS {
		g.osLeft--
		if g.osLeft <= 0 {
			g.inOS = false
		}
		return
	}
	if g.os.Uint53() < g.osEnter {
		g.inOS = true
		g.osLeft = g.os.Geometric(1 / g.p.OSBurst)
	}
}

// dataAddr draws a data address from the stack/hot/stream/cold mixture.
// Per-core layout: [0, StackBytes) stack, [StackBytes, +HotBytes) hot,
// then the cold region.
func (g *Generator) dataAddr() uint64 {
	const line = 64
	if g.inOS {
		// OS accesses in three tiers: per-CPU kernel stack (L1-resident),
		// hot kernel structures (runqueues, socket buffers), and the long
		// tail of LLC-scale kernel data.
		r := g.mem.Uint53()
		switch {
		case r < osStackCut:
			return g.base + osDataBase + g.mem.Uint64n(8<<10)
		case r < osHotCut:
			return g.base + osDataBase + g.mem.Uint64n(32<<10/line)*line
		default:
			return g.base + osDataBase + g.mem.Uint64n(osDataBytes/line)*line
		}
	}
	r := g.mem.Uint53()
	p := g.p
	hotBase := p.StackBytes
	coldBase := p.StackBytes + p.HotBytes
	switch {
	case r < g.tierStack:
		// Primary working set: uniform within an L1-sized region.
		return g.base + g.mem.Uint64n(g.stackLines)*line + g.mem.Uint64n(line)
	case r < g.tierHot:
		// Hot region: Zipf over chunks, uniform within a chunk.
		chunk := uint64(g.hotZipf.Next())
		ln := chunk*g.hotChunkLines + g.mem.Uint64n(g.hotChunkLines)
		if ln >= g.hotLines {
			ln = g.hotLines - 1
		}
		return g.base + hotBase + ln*line + g.mem.Uint64n(line)
	case r < g.tierStream:
		// Streaming cursor through the cold region, advancing at word
		// granularity (a scan touches every word of a line before moving
		// on, so only one access per line misses).
		g.streamPos++
		wordsPerLine := uint64(line / 8)
		ln := (g.streamPos / wordsPerLine) % g.coldLines
		return g.base + coldBase + ln*line + (g.streamPos%wordsPerLine)*8
	default:
		// Cold region: Zipf over coarse chunks, uniform within a chunk.
		chunk := uint64(g.coldZipf.Next())
		ln := chunk*g.coldChunkLines + g.mem.Uint64n(g.coldChunkLines)
		if ln >= g.coldLines {
			ln = g.coldLines - 1
		}
		return g.base + coldBase + ln*line
	}
}

// nextPC advances the program counter: sequential execution with jumps on
// taken branches (near jump or far jump per the profile), wrapping inside
// the code footprint.
func (g *Generator) nextPC(in *Instr) uint64 {
	pcp := &g.pc
	base := g.base + codeBase
	limit := g.p.CodeBytes
	if g.inOS {
		pcp = &g.osPC
		base = g.base + osCodeBase
		limit = osCodeBytes
	}
	pc := *pcp
	if in.Kind == Branch && in.Taken {
		if g.code.Uint53() < g.farJump {
			// Far jump: Zipf-selected 64B chunk of the footprint.
			chunk := uint64(g.codeTarget.Next())
			chunkBytes := limit / uint64(g.codeTarget.N())
			if chunkBytes < 64 {
				chunkBytes = 64
			}
			off := chunk * chunkBytes
			*pcp = base + off%limit
		} else {
			// Near jump: short backward loop edge or forward skip.
			delta := uint64(g.code.Intn(512)) * instrBytes
			if g.code.Uint53() < backwardCut {
				// backward
				off := pc - base
				if delta > off {
					delta = off
				}
				*pcp = pc - delta
			} else {
				*pcp = base + (pc-base+delta)%limit
			}
		}
	} else {
		off := pc - base + instrBytes
		if limit < instrBytes {
			off %= limit
		} else if off >= limit {
			// pc-base < limit always holds, so off < 2*limit and one
			// subtraction is off % limit.
			off -= limit
		}
		*pcp = base + off
	}
	return pc
}

// GeneratorState is the dynamic state of a Generator, sufficient to resume
// an identical trace when paired with the original (profile, coreID, seed)
// construction parameters. Lookup tables (Zipf CDFs, branch biases) are
// rebuilt deterministically at construction and are not stored.
type GeneratorState struct {
	Mix, Dep, Brs, Mem, Code, OS              uint64
	BranchPick, ColdZipf, HotZipf, CodeTarget uint64
	PC, OSPC                                  uint64
	InOS                                      bool
	OSLeft                                    int
	StreamPos                                 uint64
	Produced                                  uint64
}

// State captures the generator's dynamic state.
func (g *Generator) State() GeneratorState {
	return GeneratorState{
		Mix: g.mix.State(), Dep: g.dep.State(), Brs: g.brs.State(),
		Mem: g.mem.State(), Code: g.code.State(), OS: g.os.State(),
		BranchPick: g.branchPick.StreamState(),
		ColdZipf:   g.coldZipf.StreamState(),
		HotZipf:    g.hotZipf.StreamState(),
		CodeTarget: g.codeTarget.StreamState(),
		PC:         g.pc, OSPC: g.osPC,
		InOS: g.inOS, OSLeft: g.osLeft,
		StreamPos: g.streamPos, Produced: g.produced,
	}
}

// Reseed re-derives every internal random stream from seed with the same
// labeling scheme NewGenerator uses for (profile, coreID), while preserving
// all positional state (PC, stream cursor, OS mode, produced count) and the
// structural tables (Zipf CDFs, per-branch biases). A sweep engine hands
// each operating point its own substream (rng.Stream.Split by point index)
// so the points draw decorrelated randomness yet remain bit-reproducible
// regardless of evaluation order or worker count.
func (g *Generator) Reseed(coreID int, seed *rng.Stream) {
	root := seed.Derive(fmt.Sprintf("%s/core%d", g.p.Name, coreID))
	g.mix.SetState(root.Derive("mix").State())
	g.dep.SetState(root.Derive("dep").State())
	g.brs.SetState(root.Derive("branch").State())
	g.mem.SetState(root.Derive("mem").State())
	g.code.SetState(root.Derive("code").State())
	g.os.SetState(root.Derive("os").State())
	g.branchPick.SetStreamState(root.Derive("branch-pick").State())
	g.coldZipf.SetStreamState(root.Derive("cold").State())
	g.hotZipf.SetStreamState(root.Derive("hot").State())
	g.codeTarget.SetStreamState(root.Derive("code-target").State())
}

// Restore resumes from a state captured with State on a generator built
// with the same construction parameters.
func (g *Generator) Restore(st GeneratorState) {
	g.mix.SetState(st.Mix)
	g.dep.SetState(st.Dep)
	g.brs.SetState(st.Brs)
	g.mem.SetState(st.Mem)
	g.code.SetState(st.Code)
	g.os.SetState(st.OS)
	g.branchPick.SetStreamState(st.BranchPick)
	g.coldZipf.SetStreamState(st.ColdZipf)
	g.hotZipf.SetStreamState(st.HotZipf)
	g.codeTarget.SetStreamState(st.CodeTarget)
	g.pc, g.osPC = st.PC, st.OSPC
	g.inOS, g.osLeft = st.InOS, st.OSLeft
	g.streamPos, g.produced = st.StreamPos, st.Produced
}
