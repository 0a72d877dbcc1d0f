package sim

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ntcsim/internal/workload"
)

func TestCheckpointIdenticalContinuation(t *testing.T) {
	// A restored cluster must continue *bit-identically* to the original:
	// warm, checkpoint, then run both sides and compare measurements.
	cfg := DefaultConfig()
	orig, err := NewCluster(cfg, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	orig.FastForward(200000)
	orig.Run(20000)

	ck := orig.Checkpoint()
	restored, err := RestoreCluster(ck)
	if err != nil {
		t.Fatal(err)
	}

	a := orig.Measure(30000)
	b := restored.Measure(30000)
	if a.Instructions != b.Instructions || a.UserInstructions != b.UserInstructions {
		t.Fatalf("instruction streams diverged: %d/%d vs %d/%d",
			a.Instructions, a.UserInstructions, b.Instructions, b.UserInstructions)
	}
	if a.LLC != b.LLC {
		t.Fatalf("LLC stats diverged: %+v vs %+v", a.LLC, b.LLC)
	}
	if a.DRAM != b.DRAM {
		t.Fatalf("DRAM stats diverged: %+v vs %+v", a.DRAM, b.DRAM)
	}
	for i := range a.PerCore {
		if a.PerCore[i] != b.PerCore[i] {
			t.Fatalf("core %d stats diverged", i)
		}
	}
}

// TestCheckpointCoversLLCTraffic is the regression test for a real
// coverage gap the snapshotcheck analyzer surfaced: llcReads and
// llcWrites were accumulated by Access but never checkpointed, so a
// restored cluster silently lost its LLC read/write split (latent only
// because Measure resets stats first). Every accumulated counter must
// survive the round trip, and re-checkpointing the restored cluster
// must reproduce the original image exactly.
func TestCheckpointCoversLLCTraffic(t *testing.T) {
	cfg := DefaultConfig()
	orig, err := NewCluster(cfg, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	orig.FastForward(100000)
	orig.Run(20000)
	if orig.llcReads == 0 || orig.llcWrites == 0 {
		t.Fatalf("warmup produced no LLC traffic (reads=%d writes=%d); test is vacuous",
			orig.llcReads, orig.llcWrites)
	}

	ck := orig.Checkpoint()
	if ck.LLCReads != orig.llcReads || ck.LLCWrites != orig.llcWrites {
		t.Fatalf("checkpoint dropped LLC traffic: image %d/%d, live %d/%d",
			ck.LLCReads, ck.LLCWrites, orig.llcReads, orig.llcWrites)
	}
	restored, err := RestoreCluster(ck)
	if err != nil {
		t.Fatal(err)
	}
	if restored.llcReads != orig.llcReads || restored.llcWrites != orig.llcWrites ||
		restored.llcWriteFills != orig.llcWriteFills ||
		restored.dramReads != orig.dramReads || restored.dramWrites != orig.dramWrites {
		t.Fatalf("restore dropped counters: got reads=%d writes=%d fills=%d dr=%d dw=%d",
			restored.llcReads, restored.llcWrites, restored.llcWriteFills,
			restored.dramReads, restored.dramWrites)
	}
	if again := restored.Checkpoint(); !reflect.DeepEqual(ck, again) {
		t.Fatal("re-checkpointing the restored cluster diverged from the original image")
	}
}

func TestCheckpointSurvivesSerialization(t *testing.T) {
	cfg := DefaultConfig()
	orig, err := NewCluster(cfg, workload.MediaStreaming(), 2e9)
	if err != nil {
		t.Fatal(err)
	}
	orig.FastForward(150000)
	orig.Run(10000)
	ck := orig.Checkpoint()

	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCluster(loaded)
	if err != nil {
		t.Fatal(err)
	}

	a := orig.Measure(20000)
	b := restored.Measure(20000)
	if a.Instructions != b.Instructions || a.DRAM != b.DRAM || a.LLC != b.LLC {
		t.Fatal("round-tripped checkpoint diverged")
	}
}

func TestCheckpointPreservesDVFSContext(t *testing.T) {
	// Checkpoint at one frequency, restore, retarget: the warmed state
	// carries over, which is the whole point (warm once, sweep many).
	cfg := DefaultConfig()
	orig, err := NewCluster(cfg, workload.WebSearch(), 2e9)
	if err != nil {
		t.Fatal(err)
	}
	orig.FastForward(300000)
	orig.Run(10000)
	ck := orig.Checkpoint()

	restored, err := RestoreCluster(ck)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetFrequency(0.5e9)
	restored.Run(10000)
	m := restored.Measure(20000)
	if m.UIPC() <= 0 {
		t.Fatal("restored cluster should simulate after a DVFS change")
	}
	// A warmed restore must beat a cold cluster at the same point.
	cold, err := NewCluster(cfg, workload.WebSearch(), 0.5e9)
	if err != nil {
		t.Fatal(err)
	}
	coldM := cold.Measure(20000)
	if m.PerCore[0].L1D.HitRate() <= coldM.PerCore[0].L1D.HitRate() {
		t.Fatalf("restored caches should be warm: %.3f vs cold %.3f",
			m.PerCore[0].L1D.HitRate(), coldM.PerCore[0].L1D.HitRate())
	}
}

func TestCheckpointUnknownWorkloadRejected(t *testing.T) {
	cfg := DefaultConfig()
	cl, err := NewCluster(cfg, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	ck := cl.Checkpoint()
	ck.Profiles[0] = "no-such-workload"
	if _, err := RestoreCluster(ck); err == nil {
		t.Fatal("unknown workload name should be rejected")
	}
}

func TestCheckpointShapeMismatchRejected(t *testing.T) {
	cfg := DefaultConfig()
	cl, err := NewCluster(cfg, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	ck := cl.Checkpoint()
	ck.Config.CoresPerCluster = 2 // shape no longer matches saved cores
	ck.Profiles = ck.Profiles[:2]
	if _, err := RestoreCluster(ck); err == nil {
		t.Fatal("core-count mismatch should be rejected")
	}
}

func TestLoadCheckpointGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage input should fail to decode")
	}
}

// sealedTestBytes warms a small cluster and returns its sealed encoding.
func sealedTestBytes(t *testing.T, fp uint64) []byte {
	t.Helper()
	cl, err := NewCluster(DefaultConfig(), workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.FastForward(100000)
	cl.Run(5000)
	var buf bytes.Buffer
	if err := cl.Checkpoint().SaveSealed(&buf, fp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSealedRoundTrip(t *testing.T) {
	const fp = 0xfeedbeefcafe
	raw := sealedTestBytes(t, fp)
	ck, err := LoadSealed(bytes.NewReader(raw), fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCluster(ck); err != nil {
		t.Fatalf("restoring round-tripped sealed checkpoint: %v", err)
	}
}

func TestSealedStaleFingerprint(t *testing.T) {
	raw := sealedTestBytes(t, 1)
	_, err := LoadSealed(bytes.NewReader(raw), 2)
	if !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("fingerprint mismatch should be ErrCheckpointStale, got %v", err)
	}
	if errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatal("a stale file is intact, not corrupt")
	}
}

func TestSealedCorruption(t *testing.T) {
	const fp = 7
	raw := sealedTestBytes(t, fp)
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:10] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"unknown version", func(b []byte) []byte { b[4] = 0x7f; return b }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit flip in payload", func(b []byte) []byte { b[sealedHdrLen+17] ^= 0x01; return b }},
		{"bit flip in stored CRC", func(b []byte) []byte { b[22] ^= 0x01; return b }},
		{"zero length", func(b []byte) []byte {
			for i := 14; i < 22; i++ {
				b[i] = 0
			}
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), raw...))
			_, err := LoadSealed(bytes.NewReader(mut), fp)
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("want ErrCheckpointCorrupt, got %v", err)
			}
		})
	}
}

// TestSealedStaleRequiresIntegrity pins the verification order: a file that
// is both corrupt AND has a mismatched fingerprint must be reported corrupt —
// staleness is only meaningful for provably intact bytes.
func TestSealedStaleRequiresIntegrity(t *testing.T) {
	raw := sealedTestBytes(t, 1)
	raw[len(raw)-1] ^= 0xff
	_, err := LoadSealed(bytes.NewReader(raw), 2)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt+stale file must report corruption first, got %v", err)
	}
}

// TestCheckpointRestoresBoundProfiles checks that a restore runs the
// profile the cluster was built with, not the stock profile of its name:
// directly from Checkpoint, and through a serialized copy once Bind
// supplies the profile again.
func TestCheckpointRestoresBoundProfiles(t *testing.T) {
	edited := workload.WebSearch()
	edited.DepGeomP = 0.05
	custom := workload.WebSearch()
	custom.Name = "my-search"
	for _, p := range []*workload.Profile{edited, custom} {
		cl, err := NewCluster(DefaultConfig(), p, 2e9)
		if err != nil {
			t.Fatal(err)
		}
		cl.FastForward(20000)
		ck := cl.Checkpoint()
		restored, err := RestoreCluster(ck)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range restored.Profiles() {
			if got != p {
				t.Fatalf("%s: core %d restored %s with DepGeomP %v", p.Name, i, got.Name, got.DepGeomP)
			}
		}

		var buf bytes.Buffer
		if err := ck.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Bind(workload.DataServing()); err == nil {
			t.Fatalf("%s: Bind accepted a profile of another name", p.Name)
		}
		if err := loaded.Bind(workload.DataServing(), p); err != nil {
			t.Fatal(err)
		}
		restored, err = RestoreCluster(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if got := restored.Profile(); got != p {
			t.Fatalf("%s: bound restore ran %s with DepGeomP %v", p.Name, got.Name, got.DepGeomP)
		}
		if a, b := cl.Measure(10000), restored.Measure(10000); a.Instructions != b.Instructions || a.DRAM != b.DRAM {
			t.Fatalf("%s: bound restore diverged from the original", p.Name)
		}
	}
}

// BenchmarkRestoreCluster times one sweep point's restore of a warmed
// data-serving checkpoint: cluster construction (generators and their
// tables included) plus loading every component's state.
func BenchmarkRestoreCluster(b *testing.B) {
	cl, err := NewCluster(DefaultConfig(), workload.DataServing(), 2e9)
	if err != nil {
		b.Fatal(err)
	}
	cl.FastForward(200_000)
	ck := cl.Checkpoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreCluster(ck); err != nil {
			b.Fatal(err)
		}
	}
}
