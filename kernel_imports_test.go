package hyperdrive

import (
	"go/build"
	"strings"
	"testing"
)

// kernel is the scheduling kernel: job and decision vocabulary,
// slot-division arithmetic, the statistics store and the search space.
// Its packages import only one another and the standard library, so
// the paper's algorithm can be read, tested and reused without the
// runtime around it.
var kernel = []string{"internal/sched", "internal/core", "internal/appstat", "internal/param"}

// kernelClients are the packages built directly on the kernel, with the
// module packages they may import besides it. The one exception to a
// closed kernel: internal/curve and internal/policy may import
// internal/obs until policy.FitCounter, whose Fits() returns an
// *obs.Counter, can change.
var kernelClients = map[string][]string{
	"internal/curve":  {"internal/obs"},
	"internal/policy": {"internal/curve", "internal/obs"},
}

func TestKernelImports(t *testing.T) {
	allowed := map[string][]string{}
	for _, dir := range kernel {
		allowed[dir] = kernel
	}
	for dir, extra := range kernelClients {
		allowed[dir] = append(append([]string(nil), kernel...), extra...)
	}
	const module = "github.com/hyperdrive-ml/hyperdrive/"
	for dir, ok := range allowed {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			rel, inModule := strings.CutPrefix(imp, module)
			if !inModule {
				if first, _, _ := strings.Cut(imp, "/"); strings.Contains(first, ".") {
					t.Errorf("%s imports %s, outside the module and the standard library", dir, imp)
				}
				continue
			}
			permitted := false
			for _, a := range ok {
				permitted = permitted || rel == a
			}
			if !permitted {
				t.Errorf("%s imports %s; it may import only %v", dir, rel, ok)
			}
		}
	}
}
