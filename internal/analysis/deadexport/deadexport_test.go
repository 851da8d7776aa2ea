package deadexport_test

import (
	"testing"

	"vecstudy/internal/analysis/analysistest"
	"vecstudy/internal/analysis/deadexport"
)

func TestDeadExport(t *testing.T) {
	analysistest.RunModule(t, ".", deadexport.Analyzer, analysistest.Module{
		Pkgs:     []string{"mod/internal/dead", "mod/internal/user", "mod/internal/testutil"},
		Siblings: []string{"mod/sibling"},
	})
}

func TestPartialLoadReportsNothing(t *testing.T) {
	// No want comments: any diagnostic fails.
	analysistest.RunModule(t, ".", deadexport.Analyzer, analysistest.Module{
		Pkgs:    []string{"partial/internal/lonely"},
		Partial: true,
	})
}
