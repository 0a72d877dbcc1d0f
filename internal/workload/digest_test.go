package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"ntcsim/internal/rng"
)

// digestInstrs returns the FNV-64a digest of the next n instructions of g,
// covering every Instr field.
func digestInstrs(g *Generator, n int) uint64 {
	h := fnv.New64a()
	var in Instr
	var buf [31]byte
	for i := 0; i < n; i++ {
		g.Next(&in)
		buf[0] = byte(in.Kind)
		binary.LittleEndian.PutUint64(buf[1:], in.PC)
		binary.LittleEndian.PutUint64(buf[9:], in.Addr)
		binary.LittleEndian.PutUint64(buf[17:], uint64(in.DepDist))
		binary.LittleEndian.PutUint32(buf[25:], uint32(in.BranchID))
		buf[29], buf[30] = 0, 0
		if in.Taken {
			buf[29] = 1
		}
		if in.OS {
			buf[30] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// streamDigests pins, per (profile, seed, core), the digests of three
// 200k-instruction windows: from construction, after Reseed with
// root.Split(3), and from a fresh generator restored to the state after
// the second window. The constants were recorded before the table-driven
// Geometric, guide-table Zipf and shared-table rewrites, so they prove
// those rewrites leave every draw in place. The reports print rounded
// ratios and cannot catch a single moved draw; this can.
var streamDigests = map[string][3]uint64{
	"data-serving/0x1/0":       {0x3c3524256852bc75, 0x41b55cd3ebb59ea4, 0x4a3d2abe883f25c3},
	"data-serving/0x1/5":       {0x17f27daa904a3da0, 0x245106d68ea747c1, 0x5ae8957eb50a3f05},
	"data-serving/0x5eed/0":    {0x28881c44f430ec88, 0xc0b615097f92755c, 0x691c697786616955},
	"data-serving/0x5eed/5":    {0x8045c1ef5a80b788, 0x9714c5341df2d5bc, 0x29f9e17c9e940a0a},
	"web-search/0x1/0":         {0x84dc1c28c874696d, 0x81d83187d9685886, 0xe462913b169ac37c},
	"web-search/0x1/5":         {0x751d29063953c4fa, 0x9eb54e2a6adc33a5, 0x165583d6471106c7},
	"web-search/0x5eed/0":      {0xcf1b0f081ca9f310, 0xf0c3f12467067813, 0x9d563f682b44aad9},
	"web-search/0x5eed/5":      {0x1cee8ce85718d0d3, 0xf11baa600af4006f, 0x4fc7e242569cebd4},
	"web-serving/0x1/0":        {0xc901d18759479a5f, 0xd2b321d2d312e532, 0xd593d553cb93e5e3},
	"web-serving/0x1/5":        {0x106c3dd11195750a, 0x5347ea26d68aa98b, 0x4b651ffa503b859b},
	"web-serving/0x5eed/0":     {0xb6edbe3f86b493a9, 0xf3d98f6a68c0f943, 0xcf98bbbd90f3552d},
	"web-serving/0x5eed/5":     {0xcdb0f6035b996883, 0x831e7cb26f467128, 0xec34577f2ba4310a},
	"media-streaming/0x1/0":    {0x207c1e313325634d, 0x1cd6fcc99d41c1b6, 0xcdda1cf65cba77b0},
	"media-streaming/0x1/5":    {0x9d5be378bdc7dc25, 0x95d96fda3a1ad599, 0x806e6fc934e3bd2d},
	"media-streaming/0x5eed/0": {0x349913d44602eb6a, 0xc7f81ef8362e6d8b, 0x8c0a6eaccb325988},
	"media-streaming/0x5eed/5": {0xf5d0a0ca11543dd0, 0xf3acee7112facb83, 0x4aa03aac42207ada},
	"vm-low-mem/0x1/0":         {0xadce550a7c04a7dd, 0x83474a6edafc1048, 0x6fb0bce71ce2bbbd},
	"vm-low-mem/0x1/5":         {0x35a8048c90b54777, 0xc64f3b4eab75e80b, 0x458d6f4f93958da1},
	"vm-low-mem/0x5eed/0":      {0x592d38dbd5df0230, 0x5e64ba2bfe2aefc1, 0x4f9de63f9e3f7216},
	"vm-low-mem/0x5eed/5":      {0xc035ca91388298f5, 0xa851949618ced855, 0xcc78dec13e0b9aa1},
	"vm-high-mem/0x1/0":        {0xa7ccbf401594aa1e, 0x2e5e34b87365575f, 0xe90c248cdfb3f38f},
	"vm-high-mem/0x1/5":        {0x7819769caefcfe94, 0xe50f65b3e71caa5a, 0xd80e29ab74e92aca},
	"vm-high-mem/0x5eed/0":     {0xb749be4b458eff33, 0xfbfb6bb28e4374f9, 0x4cfeb4bd775755ab},
	"vm-high-mem/0x5eed/5":     {0x3d1944f213a131e3, 0x719e43a4721eadb7, 0x5739fc55c49aed14},
	"data-analytics/0x1/0":     {0xf8aeefb258eb8b39, 0x2bfdf7c38499e735, 0x6078ffb9b00d66ad},
	"data-analytics/0x1/5":     {0x80f47297438d8974, 0x70c22e3803a719c8, 0xac267064abb538a0},
	"data-analytics/0x5eed/0":  {0x3221eac0778dc006, 0x9b33f40e3a1e74c9, 0xfd4321c097abedd1},
	"data-analytics/0x5eed/5":  {0x85ad0991c1b0b629, 0x0a8972d92e0670b9, 0x8fd80832dceb614e},
	"graph-analytics/0x1/0":    {0x8524c8ae379d3bb9, 0x25d360fd176086c7, 0x750096fa870ea3a4},
	"graph-analytics/0x1/5":    {0x690b090b6ee7bb4a, 0x94c20fc6d428b169, 0xfd627f1089b332cd},
	"graph-analytics/0x5eed/0": {0x0e9b6dd5605daf57, 0x6a9562f7acdab423, 0x5f7a3199457b0a52},
	"graph-analytics/0x5eed/5": {0xfc4dd332ce14f79d, 0xc58c6c594a6b0308, 0xc6e6b5c679fda932},
	"bubble/0x1/0":             {0x7b87b00dee784ad7, 0xdceee8790dff42db, 0x29e492711f68f1e3},
	"bubble/0x1/5":             {0x842a3af55301d970, 0xd080de08de1e37f4, 0x3501729655b02449},
	"bubble/0x5eed/0":          {0x1bd0c5d3a3424ec3, 0x49ac03c6ce3743c5, 0xfad1fb359c667a66},
	"bubble/0x5eed/5":          {0x20799dd5d0319c76, 0x9b554449f6b76f9b, 0xfa58a6e904c4376d},
}

// ByName-reachable profiles: the evaluation set, the extended set and the
// bubble antagonist.
func byNameProfiles() []*Profile {
	ps := append(All(), Extended()...)
	return append(ps, Bubble())
}

func TestGeneratorStreamDigest(t *testing.T) {
	const n = 200_000
	var missing []string
	for _, p := range byNameProfiles() {
		for _, seed := range []uint64{1, 0x5eed} {
			for _, core := range []int{0, 5} {
				key := fmt.Sprintf("%s/%#x/%d", p.Name, seed, core)
				root := rng.New(seed)
				g := NewGenerator(p, core, root)
				var got [3]uint64
				got[0] = digestInstrs(g, n)
				g.Reseed(core, root.Split(3))
				got[1] = digestInstrs(g, n)
				r := NewGenerator(p, core, rng.New(seed))
				r.Restore(g.State())
				got[2] = digestInstrs(r, n)
				want, ok := streamDigests[key]
				if !ok {
					missing = append(missing, fmt.Sprintf("\t%q: {%#016x, %#016x, %#016x},", key, got[0], got[1], got[2]))
					continue
				}
				if got != want {
					t.Errorf("%s: stream digests %#016x, want %#016x", key, got, want)
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("no pinned digests for %d cases; computed:", len(missing))
		for _, m := range missing {
			t.Log(m)
		}
	}
}
