package epoch

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"anonlead"
)

func TestOptsDescriptorAndValidate(t *testing.T) {
	if !(Opts{}).IsZero() || (Opts{Epochs: 1}).IsZero() {
		t.Fatal("IsZero misclassifies")
	}
	if got, want := (Opts{}).Descriptor(), ""; got != want {
		t.Fatalf("zero descriptor %q", got)
	}
	if got, want := (Opts{Epochs: 5}).Descriptor(), "epochs=5,fault=crash"; got != want {
		t.Fatalf("descriptor %q, want %q", got, want)
	}
	if got, want := (Opts{Epochs: 3, Carry: true}).Descriptor(), "epochs=3,fault=crash,carry"; got != want {
		t.Fatalf("descriptor %q, want %q", got, want)
	}
	if got, want := (Opts{Epochs: 2, Revoke: true}).Descriptor(), "epochs=2,fault=revoke"; got != want {
		t.Fatalf("descriptor %q, want %q", got, want)
	}
	if err := (Opts{}).Validate(); err == nil {
		t.Fatal("zero epochs accepted")
	}
	if err := (Opts{Epochs: 2, Revoke: true, Carry: true}).Validate(); err == nil {
		t.Fatal("carry under revoke accepted")
	}
	if err := (Opts{Epochs: 2, Carry: true}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOptsValidateTable: over every combination of a boundary epoch count
// and the two flags, Validate accepts exactly at least one epoch without
// carry under revoke, and an accepted scenario is never the zero value and
// always names itself.
func TestOptsValidateTable(t *testing.T) {
	for _, epochs := range []int{math.MinInt, -1, 0, 1, 2, math.MaxInt} {
		for _, revoke := range []bool{false, true} {
			for _, carry := range []bool{false, true} {
				o := Opts{Epochs: epochs, Revoke: revoke, Carry: carry}
				err := o.Validate()
				if want := epochs >= 1 && !(revoke && carry); (err == nil) != want {
					t.Fatalf("%+v: Validate %v, want valid=%v", o, err, want)
				}
				if err == nil && (o.IsZero() || o.Descriptor() == "") {
					t.Fatalf("%+v: valid but zero or unnamed (%q)", o, o.Descriptor())
				}
			}
		}
	}
}

func mustNet(t *testing.T) *anonlead.Network {
	t.Helper()
	nw, err := anonlead.NewNetwork("complete", 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestRunAndReduce: the scenario layer drives RunEpochs deterministically
// and folds trial histories into sane cell aggregates.
func TestRunAndReduce(t *testing.T) {
	o := Opts{Epochs: 3}
	var hists []anonlead.EpochOutcome
	for trial := 0; trial < 2; trial++ {
		eo, err := Run(mustNet(t), anonlead.ProtoFloodMax,
			[]anonlead.Option{anonlead.WithSeed(uint64(100 + trial))}, o)
		if err != nil {
			t.Fatal(err)
		}
		hists = append(hists, eo)
	}
	cs := Reduce(o, hists)
	if cs.Trials != 2 || cs.Epochs != 3 || cs.Fault != "crash" {
		t.Fatalf("header wrong: %+v", cs)
	}
	if cs.ElectedRate != 1 {
		t.Fatalf("elected rate %v, want 1 (complete/8 floodmax always elects)", cs.ElectedRate)
	}
	if len(cs.PerEpochMessages) != 3 || len(cs.PerEpochRounds) != 3 || len(cs.PerEpochElected) != 3 {
		t.Fatalf("per-epoch profiles wrong length: %+v", cs)
	}
	if cs.AmortizedMessages <= 0 || cs.AmortizedRounds <= 0 || cs.MeanRecover <= 0 {
		t.Fatalf("aggregates not measured: %+v", cs)
	}
	for e, n := range cs.PerEpochElected {
		if n != 2 {
			t.Fatalf("epoch %d elected %d/2", e, n)
		}
	}

	// Reduce is deterministic and depends only on the histories.
	if again := Reduce(o, hists); !reflect.DeepEqual(again, cs) {
		t.Fatal("Reduce not deterministic")
	}

	// And the stats serialize stably (artifact material).
	raw1, _ := json.Marshal(cs)
	raw2, _ := json.Marshal(Reduce(o, hists))
	if string(raw1) != string(raw2) {
		t.Fatal("CellStats JSON not byte-stable")
	}
}

// TestRunRejectsInvalid: the scenario layer validates before running.
func TestRunRejectsInvalid(t *testing.T) {
	if _, err := Run(mustNet(t), anonlead.ProtoFloodMax, nil, Opts{}); err == nil {
		t.Fatal("zero scenario accepted")
	}
}
