package lint

import (
	"go/parser"
	"go/types"
	"path/filepath"
	"testing"
)

func TestPathMatches(t *testing.T) {
	cases := []struct {
		pkg, prefixes string
		want          bool
	}{
		{"ntcsim/internal/obs", "ntcsim/internal/obs", true},
		{"ntcsim/internal/obs/sub", "ntcsim/internal/obs", true},
		{"ntcsim/internal/observer", "ntcsim/internal/obs", false},
		{"ntcsim/cmd/ntcsim", "ntcsim/internal/obs,ntcsim/cmd", true},
		{"ntcsim/internal/sim", " ntcsim/internal/sim ", true}, // spaces trimmed
		{"ntcsim/internal/sim", "", false},
		{"anything", ",,", false},
	}
	for _, c := range cases {
		if got := pathMatches(c.pkg, c.prefixes); got != c.want {
			t.Errorf("pathMatches(%q, %q) = %v, want %v", c.pkg, c.prefixes, got, c.want)
		}
	}
}

func TestStringPrefix(t *testing.T) {
	cases := []struct {
		expr string
		want string
		ok   bool
	}{
		{`"stats: boom"`, "stats: boom", true},
		{`"cache: MustNew: " + err.Error()`, "cache: MustNew: ", true},
		{`("a" + "b") + "c"`, "a", true},
		{`fmt.Sprintf("dram: bad %d", n)`, "dram: bad %d", true},
		{`fmt.Errorf("dram: %w", err)`, "dram: %w", true},
		{`err`, "", false},
		{`fmt.Sprint(err)`, "", false},
		{`123`, "", false},
	}
	for _, c := range cases {
		e, err := parser.ParseExpr(c.expr)
		if err != nil {
			t.Fatalf("parsing %q: %v", c.expr, err)
		}
		got, ok := stringPrefix(e)
		if got != c.want || ok != c.ok {
			t.Errorf("stringPrefix(%s) = (%q, %v), want (%q, %v)", c.expr, got, ok, c.want, c.ok)
		}
	}
}

// TestLoaderHonorsBuildConstraints checks that the standalone loader
// type-checks only the files the go command would build.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	l := NewLoader(func(path string) (string, bool) {
		return filepath.Join("testdata", "src", path), path == "buildtags"
	})
	p, err := l.Load("buildtags")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := p.Types.Scope().Lookup("Picked").(*types.Const)
	if !ok || c.Val().ExactString() != `"on"` {
		t.Fatalf("loaded %v, want the go1.1 file's constant", p.Types.Scope().Lookup("Picked"))
	}
}
