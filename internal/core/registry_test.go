package core

import (
	"errors"
	"reflect"
	"testing"

	"rvpsim/internal/simerr"
)

// TestBuiltinRegistry pins, per wire name, the constructed predictor's
// Name() (reports and service state embed it) and its
// StorageBits (the extension StorageTable prints them).
func TestBuiltinRegistry(t *testing.T) {
	want := []struct {
		wire, name string
		bits       int
	}{
		{"none", "no_predict", 0},
		{"rvp", "drvp", 3072},
		{"rvp_loads", "drvp", 3072},
		{"lvp", "lvp", 89088},
		{"lvp_all", "lvp_all", 89088},
		{"gabbay", "grp", 192},
		{"stride", "stride", 154624},
		{"context", "context", 425984},
	}
	var wires []string
	for _, w := range want {
		wires = append(wires, w.wire)
		p, err := NewPredictor(w.wire)
		if err != nil {
			t.Fatalf("%s: %v", w.wire, err)
		}
		if p.Name() != w.name || p.StorageBits() != w.bits {
			t.Errorf("%s: Name %q, StorageBits %d; want %q, %d", w.wire, p.Name(), p.StorageBits(), w.name, w.bits)
		}
		if q, _ := NewPredictor(w.wire); p == q && w.wire != "none" {
			t.Errorf("%s: constructor returned a shared instance", w.wire)
		}
	}
	if got := PredictorNames(); !reflect.DeepEqual(got, wires) {
		t.Errorf("PredictorNames() = %v, want %v", got, wires)
	}
	if _, err := NewPredictor("drvp"); !errors.Is(err, simerr.ErrConfig) {
		t.Errorf("unknown name: err %v, want ErrConfig", err)
	}
}
