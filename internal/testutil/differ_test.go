package testutil

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
)

func cfg256() hw.Config {
	c := hw.Accel256()
	c.L2Size = 256 << 10
	return c
}

// TestDifferZooFixed sweeps the full layer zoo under the KC-P template:
// scheduler claims must match the replay at every budget.
func TestDifferZooFixed(t *testing.T) {
	zoo := append(models.EvaluationModels(), models.GoogLeNet(), models.AlexNet())
	d := DiffSchedules(zoo, cfg256(), DiffOptions{
		Dataflows: []string{"KC-P"},
		Tol:       0.02,
	})
	if d != nil {
		t.Fatalf("first divergence: %s", d)
	}
}

// TestDifferTuned covers the auto-tuned path (compact and minimal-
// staging member mappings included) on the DAG-heavy models.
func TestDifferTuned(t *testing.T) {
	d := DiffSchedules([]models.Model{models.GoogLeNet(), models.MobileNetV2()}, cfg256(), DiffOptions{
		L2Bytes:   []int64{0, 256 << 10},
		Dataflows: []string{""},
		Tol:       0.02,
	})
	if d != nil {
		t.Fatalf("first divergence: %s", d)
	}
}

// TestEquivalenceMatrix: at the L2Bytes=0 sentinel the graph scheduler
// must collapse to the per-layer sum on every model x template cell.
func TestEquivalenceMatrix(t *testing.T) {
	zoo := append(models.EvaluationModels(), models.GoogLeNet())
	cells := EquivalenceMatrix(zoo, hw.Accel256(), []string{"", "KC-P"})
	if len(cells) == 0 {
		t.Fatal("empty matrix")
	}
	for _, c := range cells {
		if !c.Equal {
			t.Errorf("%s/%s: fused %d != plain %d", c.Model, c.Dataflow, c.Fused, c.Plain)
		}
	}
}
