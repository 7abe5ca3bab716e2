package fmath

// The AVX2 kernels of kernel_amd64.s. Each reads src four elements at a
// time for at most groups groups, writes f of them to dst (Exp, Tanh or
// Sigmoid, bit for bit), and returns how many elements it wrote: 4·groups,
// or fewer when it stopped at a group it leaves to the scalar function.

//go:noescape
func expAVX2(dst, src *float64, groups int) int

//go:noescape
func tanhAVX2(dst, src *float64, groups int) int

//go:noescape
func sigmoidAVX2(dst, src *float64, groups int) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7, EBX bit 5) and
// AVX (leaf 1, ECX bit 28), and the operating system saves the XMM and YMM
// state (OSXSAVE, leaf 1 ECX bit 27, then XCR0 bits 1 and 2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
