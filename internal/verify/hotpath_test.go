package verify

import (
	"reflect"
	"testing"

	"qwm/internal/bench"
	"qwm/internal/mos"
)

// TestHotPathDiff runs the four-leg hot-path differential on one generated
// wide case: reduction-off bit-identity, reduction-on bounded error with the
// pre-pass demonstrably active, serial/parallel identity, and the
// load-aliasing trap on a shared analyzer. It also pins determinism: running
// the identical case twice yields the identical record.
func TestHotPathDiff(t *testing.T) {
	tech := mos.CMOSP35()
	h, err := bench.NewHarness(tech)
	if err != nil {
		t.Fatal(err)
	}
	c, err := GenHotPathCase(tech, newRand(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	d := RunHotPathDiff(tech, h.Lib, c, 4, 10, nil)
	if d.Err != "" {
		t.Fatal(d.Err)
	}
	if !d.Pass {
		t.Fatalf("hot-path diff failed: %v", d.Mismatches)
	}
	if d.ReducedNodes == 0 {
		t.Error("reduction reported no removed nodes")
	}
	if d.MaxErrPct > 10 {
		t.Errorf("features-on error %.2f%% over tolerance", d.MaxErrPct)
	}

	c2, err := GenHotPathCase(tech, newRand(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	d2 := RunHotPathDiff(tech, h.Lib, c2, 4, 10, nil)
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("hot-path diff not reproducible:\n%+v\nvs\n%+v", d, d2)
	}
}
