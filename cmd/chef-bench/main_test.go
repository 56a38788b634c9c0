package main

import (
	"testing"

	"chef/internal/chef"
	"chef/internal/experiments"
	"chef/internal/packages"
	"chef/internal/solver"
)

// TestCellConfigIdentity checks the identifying columns a matrix cell
// records, in particular that the language is written by name rather than
// as the raw enum byte.
func TestCellConfigIdentity(t *testing.T) {
	p, ok := packages.ByName("simplejson")
	if !ok {
		t.Fatal("simplejson not registered")
	}
	cfg := experiments.Configuration{Name: "dfs+opt", Strategy: chef.StrategyDFS}
	b := experiments.Budgets{Reps: 2, SolverMode: solver.ModeIncremental}
	c := cellConfig(p, cfg, b, "warm", 1, 4)
	if c.Language != "Python" {
		t.Errorf("Language = %q, want %q", c.Language, "Python")
	}
	if c.Name != "simplejson/dfs/inc/warm/s4" {
		t.Errorf("Name = %q", c.Name)
	}
	if c.Strategy != "dfs" || c.SolverMode != "incremental" || c.Sessions != 2 || c.Shards != 4 {
		t.Errorf("unexpected cell columns: %+v", c)
	}
}
