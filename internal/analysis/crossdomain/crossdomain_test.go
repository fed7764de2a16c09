package crossdomain_test

import (
	"testing"

	"durassd/internal/analysis/checktest"
	"durassd/internal/analysis/crossdomain"
)

func TestCrossdomain(t *testing.T) {
	checktest.Run(t, "crossdomain", crossdomain.Analyzer)
}
