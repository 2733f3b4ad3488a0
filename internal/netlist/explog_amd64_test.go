//go:build amd64 && !race

package netlist

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// expNoFMA is the non-FMA branch of the standard library's amd64 math.Exp
// (exp_amd64.s) on the packed kernel's domain, |x| ≤ 700: every product
// rounded before it is added. The float64 conversions keep the compiler
// from fusing a product into a sum.
func expNoFMA(x float64) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(float64(log2e * x))
	x -= float64(ln2U * k)
	x -= float64(ln2L * k)
	x *= 0.0625
	p := float64(2.4801587301587301587e-5 * x)
	for _, c := range []float64{
		1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5,
	} {
		p = float64((p + c) * x)
	}
	x = float64(x * (p + 1))
	for j := 0; j < 4; j++ {
		x = float64(x * (x + 2))
	}
	return (x + 1) * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// expTakesFMABranch reports whether math.Exp runs the FMA branch the
// kernel copies: on the first probes the two branches differ.
func expTakesFMABranch() bool {
	for _, x := range expProbes[:6] {
		if math.Float64bits(math.Exp(x)) == math.Float64bits(expNoFMA(x)) {
			return false
		}
	}
	return true
}

// needKernels skips the test where the CPU cannot run the kernels or
// math.Exp does not take its FMA branch, and fails it where the probes
// turned the kernels off although both hold, or left them on although
// math.Exp takes the other branch.
func needKernels(t *testing.T) {
	t.Helper()
	if !cpuHasAVX2FMA() {
		t.Skip("the CPU lacks AVX2 or FMA")
	}
	if !expTakesFMABranch() {
		if useExpLogAVX2 {
			t.Fatal("math.Exp takes its non-FMA branch, but the probes left the kernels on")
		}
		t.Skip("math.Exp does not take its FMA branch (GODEBUG=cpu.fma=off?)")
	}
	if !useExpLogAVX2 {
		t.Error("the CPU has AVX2 and FMA and math.Exp takes its FMA branch, but the kernels are off: a probe does not match")
	}
}

// randomBits draws a float64 from uniformly random bits: every sign,
// exponent and NaN payload, subnormals and infinities included.
func randomBits(rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64()) }

// checkKernel compares kernel(dst, x) with f on every element the kernel
// reports done, and into(dst, x) with f on every element, bit for bit.
func checkKernel(t *testing.T, name string, x []float64, f func(float64) float64,
	kernel func(dst, x []float64) int, into func(dst, x []float64)) {
	t.Helper()
	dst := make([]float64, len(x))
	done := kernel(dst, x)
	if done%4 != 0 || done > len(x) {
		t.Fatalf("%s: the kernel reported %d of %d elements done", name, done, len(x))
	}
	for i := range done {
		if want := f(x[i]); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("%s: kernel(%v = %#x) = %v (%#x), want %v (%#x)", name,
				x[i], math.Float64bits(x[i]), dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
	into(dst, x)
	for i, v := range x {
		if want := f(v); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("%s: into(%v = %#x) = %v (%#x), want %v (%#x)", name,
				v, math.Float64bits(v), dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
}

// TestExpKernelMatchesMath pins expAVX2 and expInto to math.Exp bit for
// bit on 2^20 arguments drawn over the kernel's domain, 2^19 random bit
// patterns, and 2^19 arguments that mix the edges (±700 and their
// neighbours, −708.4, 709.8, ±0, ±Inf, NaN), arguments with subnormal
// results and random bits into blocks with in-domain lanes. On an all-in-domain input the kernel must do every
// block. It also checks that the first probes are arguments on which
// math.Exp's non-FMA branch rounds differently from the kernel, so the
// probe check turns the kernel off when math.Exp takes that branch.
func TestExpKernelMatchesMath(t *testing.T) {
	needKernels(t)
	for _, x := range expProbes[:6] {
		var got [4]float64
		expAVX2(got[:], []float64{x, x, x, x})
		if math.Float64bits(got[0]) == math.Float64bits(expNoFMA(x)) {
			t.Errorf("probe %v: the kernel and math.Exp's non-FMA branch agree (%#x)", x, math.Float64bits(got[0]))
		}
	}

	rng := rand.New(rand.NewSource(1))
	in := make([]float64, 1<<20)
	for i := range in {
		in[i] = (2*rng.Float64() - 1) * 700
	}
	in[0], in[1], in[2], in[3] = -700, 700, 0, math.Copysign(0, -1)
	in[4], in[5] = math.Nextafter(-700, 0), math.Nextafter(700, 0)
	dst := make([]float64, len(in))
	if done := expAVX2(dst, in); done != len(in) {
		t.Fatalf("the kernel stopped at %d of %d in-domain arguments", done, len(in))
	}
	checkKernel(t, "domain", in, math.Exp, expAVX2, expInto)

	edges := []float64{
		-700, 700, math.Nextafter(-700, -1000), math.Nextafter(700, 1000),
		-708.4, 709.8, -709.9, 710, -720, -740, -745.2, -746,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
	}
	mixed := make([]float64, 1<<19)
	for i := range mixed {
		switch rng.Intn(4) {
		case 0:
			mixed[i] = randomBits(rng)
		case 1:
			mixed[i] = edges[rng.Intn(len(edges))]
		case 2:
			mixed[i] = -708.4 - 37*rng.Float64() // subnormal results and underflow
		default:
			mixed[i] = (2*rng.Float64() - 1) * 700
		}
	}
	checkKernel(t, "mixed", mixed, math.Exp, expAVX2, expInto)
	for i := range mixed {
		mixed[i] = randomBits(rng)
	}
	checkKernel(t, "bits", mixed, math.Exp, expAVX2, expInto)
	// Every length, so the tails and the blocks the kernel stops at meet.
	for n := 0; n <= 13; n++ {
		checkKernel(t, "short", mixed[:n], math.Exp, expAVX2, expInto)
		checkKernel(t, "edges", edges[:min(n, len(edges))], math.Exp, expAVX2, expInto)
	}
}

// TestLogKernelMatchesMath pins logAVX2 and logInto to math.Log bit for
// bit on 2^20 positive normal arguments (half in [0.5, 2), half from
// random bits), and 2^19 that mix random bit patterns of every sign and
// class with the edges: √2/2 exactly and its neighbours (where the scalar
// routine's NLT comparison decides its branch), the smallest normal and
// its neighbours, the largest finite number, 1, ±0, ±Inf, NaN and
// negative numbers. On an all-in-domain input the kernel must do every
// block.
func TestLogKernelMatchesMath(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(2))
	in := make([]float64, 1<<20)
	for i := range in {
		// A positive exponent field in [1, 2046] and any mantissa.
		in[i] = math.Float64frombits(uint64(1+rng.Intn(2046))<<52 | rng.Uint64()>>12)
	}
	for i := 0; i < 1<<19; i++ {
		in[i] = 0.5 + 1.5*rng.Float64()
	}
	copy(in, []float64{1, hSqrt2, math.Nextafter(hSqrt2, 0), math.Nextafter(hSqrt2, 1),
		0x1p-1022, math.Nextafter(0x1p-1022, 1), math.MaxFloat64, 2})
	dst := make([]float64, len(in))
	if done := logAVX2(dst, in); done != len(in) {
		t.Fatalf("the kernel stopped at %d of %d in-domain arguments", done, len(in))
	}
	checkKernel(t, "domain", in, math.Log, logAVX2, logInto)

	edges := []float64{
		1, hSqrt2, 0x1p-1022, math.Nextafter(0x1p-1022, 0), 5e-324, math.MaxFloat64,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1, -0x1p-1022,
		math.Float64frombits(0x7ff8000000000123),
	}
	mixed := make([]float64, 1<<19)
	for i := range mixed {
		switch rng.Intn(3) {
		case 0:
			mixed[i] = randomBits(rng)
		case 1:
			mixed[i] = edges[rng.Intn(len(edges))]
		default:
			mixed[i] = math.Abs(randomBits(rng))
		}
	}
	checkKernel(t, "mixed", mixed, math.Log, logAVX2, logInto)
	for n := 0; n <= 13; n++ {
		checkKernel(t, "short", mixed[:n], math.Log, logAVX2, logInto)
		checkKernel(t, "edges", edges[:min(n, len(edges))], math.Log, logAVX2, logInto)
	}
}

// TestCPUHasAVX2FMAMatchesCPUInfo checks the CPUID/XGETBV detection
// against the kernel's view: Linux lists the avx2 and fma flags in
// /proc/cpuinfo only when the CPU has them and the OS saves the YMM state.
func TestCPUHasAVX2FMAMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux only")
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	defer f.Close()
	flags := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = val
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if flags == "" {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	avx2, fma := false, false
	for _, fl := range strings.Fields(flags) {
		avx2 = avx2 || fl == "avx2"
		fma = fma || fl == "fma"
	}
	if got := cpuHasAVX2FMA(); got != (avx2 && fma) {
		t.Errorf("cpuHasAVX2FMA() = %v, /proc/cpuinfo avx2 %v fma %v", got, avx2, fma)
	}
}
