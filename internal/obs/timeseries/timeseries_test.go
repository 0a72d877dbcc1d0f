package timeseries

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ntcsim/internal/obs"
)

func sample(epoch, cluster int, nj int64) Sample {
	return Sample{
		Epoch:   epoch,
		Cluster: cluster,
		Start:   time.Duration(epoch) * time.Second,
		Dur:     time.Second,
		Energy: Ledger{
			CoreDynNJ: nj, CoreLeakNJ: nj / 2, LLCNJ: nj / 4,
			XbarNJ: nj / 8, IONJ: nj / 16, DRAMNJ: nj / 32,
		},
		FreqHz:   1.5e9,
		VoltageV: 0.62,
		Util:     0.73,
		Queue:    3,
		P99:      42 * time.Millisecond,
	}
}

func TestNJRounding(t *testing.T) {
	cases := []struct {
		j    float64
		want int64
	}{
		{0, 0},
		{1e-9, 1},
		{1.4e-9, 1},
		{1.5e-9, 2}, // round half away from zero
		{-1.5e-9, -2},
		{100, 100_000_000_000}, // 100 J — far from int64 overflow
	}
	for _, c := range cases {
		if got := NJ(c.j); got != c.want {
			t.Errorf("NJ(%g) = %d, want %d", c.j, got, c.want)
		}
	}
}

func TestLedgerAddAndTotals(t *testing.T) {
	var l Ledger
	l.Add(Ledger{CoreDynNJ: 1, CoreLeakNJ: 2, LLCNJ: 3, XbarNJ: 4, IONJ: 5, DRAMNJ: 6})
	l.Add(Ledger{CoreDynNJ: 10, DRAMNJ: 20})
	if got := l.TotalNJ(); got != 51 {
		t.Fatalf("TotalNJ = %d, want 51", got)
	}
	if got := l.TotalJ(); got != 51e-9 {
		t.Fatalf("TotalJ = %g, want 51e-9", got)
	}
}

func TestNilSamplerIsInert(t *testing.T) {
	var s *Sampler
	if ser := s.Series("x"); ser != nil {
		t.Fatalf("nil sampler returned non-nil series")
	}
	if all := s.All(); all != nil {
		t.Fatalf("nil sampler All() = %v", all)
	}
	if err := s.Audit(0); err != nil {
		t.Fatalf("nil sampler Audit: %v", err)
	}
	if snap := s.Snapshot(); snap != nil {
		t.Fatalf("nil sampler Snapshot() = %v", snap)
	}
	s.EmitTraceCounters(nil) // must not panic
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatalf("nil sampler WriteCSV: %v", err)
	}
	if got := buf.String(); got != csvHeader+"\n" {
		t.Fatalf("nil sampler CSV = %q, want bare header", got)
	}
}

func TestNilSeriesIsInert(t *testing.T) {
	var ser *Series
	ser.Record(sample(0, 0, 100)) // must not panic
	ser.ReportTotal(1.0)
	if ser.Name() != "" || ser.Len() != 0 || ser.Samples() != nil {
		t.Fatalf("nil series leaked state: %q %d %v", ser.Name(), ser.Len(), ser.Samples())
	}
	if sum := ser.Sum(); sum != (Ledger{}) {
		t.Fatalf("nil series Sum() = %+v", sum)
	}
	if _, ok := ser.Reported(); ok {
		t.Fatalf("nil series has a reported total")
	}
}

func TestSeriesDedupeAndSanitize(t *testing.T) {
	s := NewSampler()
	a := s.Series("serve/jsq")
	b := s.Series("serve/jsq")
	if a != b {
		t.Fatalf("same name produced distinct series")
	}
	c := s.Series("bad,name\nwith\rseps")
	if got, want := c.Name(), "bad_name_with_seps"; got != want {
		t.Fatalf("sanitized name = %q, want %q", got, want)
	}
	// The sanitized and raw spellings must collide into one series: CSV
	// round-trips through the sanitized name.
	if s.Series("bad_name_with_seps") != c {
		t.Fatalf("sanitized alias made a new series")
	}
}

func TestAllSortedByName(t *testing.T) {
	s := NewSampler()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s.Series(n).Record(sample(0, 0, 1))
	}
	all := s.All()
	var got []string
	for _, ser := range all {
		got = append(got, ser.Name())
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("All() order = %v, want %v", got, want)
		}
	}
}

func TestReportTotalIsAdditive(t *testing.T) {
	s := NewSampler()
	ser := s.Series("x")
	ser.ReportTotal(1.5)
	ser.ReportTotal(2.5)
	rep, ok := ser.Reported()
	if !ok || rep != 4.0 {
		t.Fatalf("Reported() = %g, %v; want 4, true", rep, ok)
	}
}

func TestAuditConservation(t *testing.T) {
	s := NewSampler()
	ser := s.Series("run")
	ser.Record(sample(0, 0, 1_000_000_000)) // ledger total 1.96875 J
	sumJ := ser.Sum().TotalJ()

	// No reported total yet: nothing to conserve against.
	if err := s.Audit(0); err != nil {
		t.Fatalf("audit without reported total: %v", err)
	}
	ser.ReportTotal(sumJ)
	if err := s.Audit(0); err != nil {
		t.Fatalf("audit with matching total: %v", err)
	}
	// Now break conservation beyond the default epsilon.
	ser.ReportTotal(0.5)
	err := s.Audit(0)
	if err == nil {
		t.Fatalf("audit passed with a 0.5 J discrepancy")
	}
	if !strings.Contains(err.Error(), "energy not conserved") {
		t.Fatalf("unexpected audit error: %v", err)
	}
	// A sloppy epsilon forgives it.
	if err := s.Audit(1.0); err != nil {
		t.Fatalf("audit with eps=1: %v", err)
	}
}

func TestAuditAbsorbsQuantization(t *testing.T) {
	// Worst-case rounding: each of 6 components off by 0.5 nJ per sample
	// must stay inside DefaultEpsilon for a ~1 J series.
	s := NewSampler()
	ser := s.Series("quant")
	var reported float64
	for i := 0; i < 100; i++ {
		j := 0.0012345678 // rounds at the nJ grain
		led := Ledger{CoreDynNJ: NJ(j), CoreLeakNJ: NJ(j), LLCNJ: NJ(j),
			XbarNJ: NJ(j), IONJ: NJ(j), DRAMNJ: NJ(j)}
		ser.Record(Sample{Epoch: i, Cluster: 0, Dur: time.Second, Energy: led})
		reported += 6 * j
	}
	ser.ReportTotal(reported)
	if err := s.Audit(0); err != nil {
		t.Fatalf("quantization broke the audit: %v", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := NewSampler()
	a := s.Series("serve/jsq")
	a.Record(sample(0, 0, 123_456_789))
	a.Record(sample(0, 1, 98_765))
	a.Record(sample(1, 0, 123))
	a.ReportTotal(a.Sum().TotalJ())
	b := s.Series("replay/adaptive")
	b.Record(sample(0, -1, 55)) // chip-scope sample

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	first := buf.String()

	got, err := ReadCSV(strings.NewReader(first))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	var buf2 bytes.Buffer
	if err := got.WriteCSV(&buf2); err != nil {
		t.Fatalf("re-WriteCSV: %v", err)
	}
	if second := buf2.String(); second != first {
		t.Fatalf("CSV round-trip not byte-identical:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	// Reported totals survive the trip, so a re-read dump still audits.
	if err := got.Audit(0); err != nil {
		t.Fatalf("round-tripped audit: %v", err)
	}
	if got.Series("serve/jsq").Len() != 3 {
		t.Fatalf("round-trip lost samples: %d", got.Series("serve/jsq").Len())
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad header":  "not,the,header\n",
		"field count": csvHeader + "\nx,0,0\n",
		"bad int":     csvHeader + "\nx,zero,0,0,0,0,0,0,0,0,0,1,1,1,0,0\n",
		"bad float":   csvHeader + "\nx,0,0,0,0,0,0,0,0,0,0,notafloat,1,1,0,0\n",
		"bad total":   csvHeader + "\n#total,x,notafloat\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadCSV accepted malformed input", name)
		}
	}
}

func TestEmitTraceCounters(t *testing.T) {
	s := NewSampler()
	ser := s.Series("serve/jsq")
	ser.Record(sample(0, 0, 100))
	ser.Record(sample(0, 1, 100))
	s.Series("sweep").Record(sample(0, -1, 50)) // chip scope: bare lane name

	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	s.EmitTraceCounters(tr)
	if err := tr.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
	out := buf.String()
	if got := strings.Count(out, `"ph":"C"`); got != 3 {
		t.Fatalf("counter event count = %d, want 3\n%s", got, out)
	}
	for _, want := range []string{
		`serve/jsq/c0 energy_nj`, `serve/jsq/c1 energy_nj`, `sweep energy_nj`,
		`"core_dyn":100`, `"dram":3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshot(t *testing.T) {
	s := NewSampler()
	ser := s.Series("a")
	ser.Record(sample(0, 0, 64))
	ser.ReportTotal(ser.Sum().TotalJ())
	s.Series("b").Record(sample(0, 0, 32))

	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Samples != 1 || snap[0].EnergyJ != ser.Sum().TotalJ() || snap[0].ReportedJ == 0 {
		t.Fatalf("snapshot[0] = %+v", snap[0])
	}
	if snap[1].ReportedJ != 0 {
		t.Fatalf("snapshot[1] has a reported total: %+v", snap[1])
	}
}

func TestRecordIsolation(t *testing.T) {
	// Samples() must return a copy: mutating it cannot corrupt the series.
	s := NewSampler()
	ser := s.Series("x")
	ser.Record(sample(0, 0, 10))
	got := ser.Samples()
	got[0].Energy.CoreDynNJ = 999_999
	if ser.Sum().CoreDynNJ != 10 {
		t.Fatalf("Samples() aliased internal storage")
	}
}
