//go:build !amd64 || noasm

package sparse

func asmAvailable() bool { return false }

// The assembly kernels are never dispatched to when asmAvailable reports
// false (vectorOn stays unset and ForceGenericKernels cannot set it), so
// these bodies exist only to satisfy the linker.

func gatherDotAsm(col *int32, data *float64, x *float64, n int) float64 {
	panic("sparse: assembly kernel called on a build without assembly")
}

func sellSliceAsm(cols *int32, data *float64, x *float64, sums *float64, width int) {
	panic("sparse: assembly kernel called on a build without assembly")
}

func diaAccumAsm(d *float64, x *float64, y *float64, n int) {
	panic("sparse: assembly kernel called on a build without assembly")
}

func spmmRowsAsm(ptr *int, col *int32, data *float64, x *float64, y *float64, k, rows int) {
	panic("sparse: assembly kernel called on a build without assembly")
}
