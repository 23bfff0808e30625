package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/checkpoint"
)

func TestRunCheckedBudgetExhausted(t *testing.T) {
	s, err := FromConfig(Config{Nodes: 20, Seed: 1, EventBudget: 25})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMining()
	if err := s.RunChecked(24 * time.Hour); !errors.Is(err, checkpoint.ErrBudget) {
		t.Fatalf("RunChecked = %v, want wrap of checkpoint.ErrBudget", err)
	}
}

func TestRunCheckedCleanWithoutBudget(t *testing.T) {
	s, err := FromConfig(Config{Nodes: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMining()
	if err := s.RunChecked(time.Hour); err != nil {
		t.Fatalf("unbudgeted RunChecked = %v", err)
	}
}
