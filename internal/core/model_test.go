package core

import (
	"context"
	"encoding"
	"encoding/gob"
	"reflect"
	"testing"

	"ntcsim/internal/platform"
	"ntcsim/internal/workload"
)

// Every Model input is either hashed into the checkpoint fingerprint
// (it shapes the warmed state) or acts only after the checkpoint is
// taken. A field in neither set would either let a stale checkpoint
// restore or make the cache miss for no reason, so the classification
// must be complete. Platform is split by its own fields.
var (
	modelHashed         = []string{"Sim", "WarmInstr", "SettleCycles"}
	modelAfterCkpt      = []string{"Fidelity", "Thermal"}
	platformHashed      = []string{"Clusters", "CoresPerCl", "Memory"}
	platformAfterCkpt   = []string{"Tech", "Core", "LLC", "Xbar", "Peripherals", "AreaBudgetMM2", "PowerBudgetW"}
	gobEncoderType      = reflect.TypeOf((*gob.GobEncoder)(nil)).Elem()
	binaryMarshalerType = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()
)

// requireClassified fails on any field of struct type t that is in
// neither or both of the two sets, and on names in the sets that t lacks.
func requireClassified(t *testing.T, typ reflect.Type, hashed, after []string) {
	t.Helper()
	in := func(set []string, name string) bool {
		for _, s := range set {
			if s == name {
				return true
			}
		}
		return false
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "Platform" && typ == reflect.TypeOf(Model{}) {
			continue // classified field by field below
		}
		h, a := in(hashed, name), in(after, name)
		switch {
		case !h && !a:
			t.Errorf("%s.%s is neither hashed into the checkpoint fingerprint nor classified as post-checkpoint", typ.Name(), name)
		case h && a:
			t.Errorf("%s.%s is classified both ways", typ.Name(), name)
		}
	}
	for _, set := range [][]string{hashed, after} {
		for _, name := range set {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("classification names %s.%s, which does not exist", typ.Name(), name)
			}
		}
	}
}

// requireGobStable walks typ and fails on anything gob would silently
// drop (unexported fields, funcs, chans) or encode in an unstable order
// (maps), either of which would let two different configurations share
// a fingerprint or one configuration hash differently across runs.
func requireGobStable(t *testing.T, typ reflect.Type, path string, seen map[reflect.Type]bool) {
	t.Helper()
	if seen[typ] {
		return
	}
	seen[typ] = true
	if typ.Implements(gobEncoderType) || typ.Implements(binaryMarshalerType) {
		return // encodes itself
	}
	switch typ.Kind() {
	case reflect.Func, reflect.Chan, reflect.UnsafePointer, reflect.Interface:
		t.Errorf("%s has kind %s, which gob cannot hash faithfully", path, typ.Kind())
	case reflect.Map:
		t.Errorf("%s is a map: gob encodes maps in random order", path)
	case reflect.Pointer, reflect.Slice, reflect.Array:
		requireGobStable(t, typ.Elem(), path+"[]", seen)
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s is unexported: gob skips it", path, f.Name)
				continue
			}
			requireGobStable(t, f.Type, path+"."+f.Name, seen)
		}
	}
}

func TestModelFieldsClassified(t *testing.T) {
	requireClassified(t, reflect.TypeOf(Model{}), modelHashed, modelAfterCkpt)
	requireClassified(t, reflect.TypeOf(platform.Spec{}), platformHashed, platformAfterCkpt)

	m, err := NewModel("quick")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[reflect.Type]bool{}
	// The profile is the other hashed input (see checkpointFingerprint).
	requireGobStable(t, reflect.TypeOf(workload.WebSearch()), "Profile", seen)
	mv := reflect.ValueOf(m)
	for _, name := range modelHashed {
		requireGobStable(t, mv.FieldByName(name).Type(), "Model."+name, seen)
	}
	pv := reflect.ValueOf(*m.Platform)
	for _, name := range platformHashed {
		requireGobStable(t, pv.FieldByName(name).Type(), "Platform."+name, seen)
	}
}

func TestNewModelFidelity(t *testing.T) {
	quick, err := NewModel("")
	if err != nil {
		t.Fatal(err)
	}
	if quick.Fidelity != "quick" || quick.WarmInstr != 2_000_000 || quick.SettleCycles != 20_000 {
		t.Fatalf("default model: fidelity %q, warm %d, settle %d", quick.Fidelity, quick.WarmInstr, quick.SettleCycles)
	}
	if _, err := NewModel("bogus"); err == nil {
		t.Fatal("unknown fidelity must be rejected")
	}
	e := &Explorer{Model: quick}
	e.Fidelity = "bogus"
	if _, err := e.Sweep(context.Background(), workload.WebSearch(), []float64{1e9}); err == nil {
		t.Fatal("Sweep must reject an unknown fidelity")
	}
}

// TestModelVariantsCopyPlatform: the variants share nothing mutable with
// the model they were derived from.
func TestModelVariantsCopyPlatform(t *testing.T) {
	m, err := NewModel("quick")
	if err != nil {
		t.Fatal(err)
	}
	want := *m.Platform
	wantSim := m.Sim
	lp, c8 := m.LPDDR4(), m.EightCore()
	if !reflect.DeepEqual(*m.Platform, want) || !reflect.DeepEqual(m.Sim, wantSim) {
		t.Fatal("deriving a variant mutated the original model")
	}
	if lp.Platform == m.Platform || c8.Platform == m.Platform {
		t.Fatal("variants must own a copy of the platform spec")
	}
	if c8.Platform.TotalCores() != 32 || c8.Sim.CoresPerCluster != 8 {
		t.Fatalf("8-core variant: %d cores, %d per cluster", c8.Platform.TotalCores(), c8.Sim.CoresPerCluster)
	}
	if lp.Sim.DRAM.Power.Name == m.Sim.DRAM.Power.Name {
		t.Fatal("LPDDR4 variant must simulate LPDDR4, not only price it")
	}
}
