package pq

import (
	"math"
	"math/rand"
	"testing"

	"vecstudy/internal/vec"
)

func randData(rng *rand.Rand, n, d int) []float32 {
	out := make([]float32, n*d)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func trainSmall(t *testing.T, m, ksub int) (*Quantizer, []float32, int, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	n, d := 2000, 32
	data := randData(rng, n, d)
	q, err := Train(data, n, d, Config{M: m, KSub: ksub, Seed: 5, UseGemm: true})
	if err != nil {
		t.Fatal(err)
	}
	return q, data, n, d
}

func TestTrainValidation(t *testing.T) {
	data := make([]float32, 300*32)
	if _, err := Train(data, 300, 32, Config{M: 0}); err == nil {
		t.Error("accepted M=0")
	}
	if _, err := Train(data, 300, 32, Config{M: 5}); err == nil {
		t.Error("accepted M not dividing D")
	}
	if _, err := Train(data, 300, 32, Config{M: 4, KSub: 512}); err == nil {
		t.Error("accepted KSub > 256")
	}
	if _, err := Train(data[:10*32], 10, 32, Config{M: 4, KSub: 64}); err == nil {
		t.Error("accepted n < KSub")
	}
}

func TestEncodeDecodeReducesError(t *testing.T) {
	q, data, n, d := trainSmall(t, 8, 64)
	code := make([]byte, q.M)
	recon := make([]float32, d)
	var errSum, normSum float64
	for i := 0; i < 200; i++ {
		row := data[i*d : (i+1)*d]
		q.Encode(row, code)
		q.Decode(code, recon)
		errSum += float64(vec.L2Sqr(row, recon))
		normSum += float64(vec.Norm2(row))
	}
	// Quantization must retain most of the signal energy.
	if errSum/normSum > 0.75 {
		t.Errorf("relative reconstruction error %v too high", errSum/normSum)
	}
	_ = n
}

func TestEncodePicksNearestCodeword(t *testing.T) {
	q, data, _, d := trainSmall(t, 4, 16)
	code := make([]byte, q.M)
	for i := 0; i < 50; i++ {
		row := data[i*d : (i+1)*d]
		q.Encode(row, code)
		for m := 0; m < q.M; m++ {
			sub := row[m*q.DSub : (m+1)*q.DSub]
			got := vec.L2Sqr(sub, q.Codeword(m, int(code[m])))
			for j := 0; j < q.KSub; j++ {
				if d := vec.L2Sqr(sub, q.Codeword(m, j)); d < got-1e-6 {
					t.Fatalf("row %d subspace %d: codeword %d closer than chosen %d", i, m, j, code[m])
				}
			}
		}
	}
}

func TestDistanceTableNaiveCorrect(t *testing.T) {
	q, data, _, d := trainSmall(t, 4, 16)
	x := data[:d]
	tab := make([]float32, q.M*q.KSub)
	q.DistanceTableNaive(x, tab)
	for m := 0; m < q.M; m++ {
		for j := 0; j < q.KSub; j++ {
			want := vec.L2SqrRef(x[m*q.DSub:(m+1)*q.DSub], q.Codeword(m, j))
			if got := tab[m*q.KSub+j]; got != want {
				t.Fatalf("tab[%d][%d] = %v, want %v", m, j, got, want)
			}
		}
	}
}

func TestTableDecompositionIdentity(t *testing.T) {
	// ‖x_m − p‖² must equal ‖x_m‖² + ‖p‖² − 2·ip from the optimized path.
	q, data, _, d := trainSmall(t, 8, 32)
	x := data[d : 2*d]
	naive := make([]float32, q.M*q.KSub)
	ip := make([]float32, q.M*q.KSub)
	q.DistanceTableNaive(x, naive)
	q.InnerProductTable(x, ip)
	norms := q.CodewordNorms()
	for m := 0; m < q.M; m++ {
		xm := x[m*q.DSub : (m+1)*q.DSub]
		xn := vec.Norm2(xm)
		for j := 0; j < q.KSub; j++ {
			idx := m*q.KSub + j
			rebuilt := xn + norms[idx] - 2*ip[idx]
			if diff := math.Abs(float64(rebuilt - naive[idx])); diff > 1e-3 {
				t.Fatalf("decomposition off at (%d,%d): %v vs %v", m, j, rebuilt, naive[idx])
			}
		}
	}
}

func TestADCApproximatesTrueDistance(t *testing.T) {
	// Asymmetric distance (query vs decoded code) computed through the
	// naive table must equal the distance to the reconstruction exactly.
	q, data, _, d := trainSmall(t, 8, 64)
	query := data[5*d : 6*d]
	tab := make([]float32, q.M*q.KSub)
	q.DistanceTableNaive(query, tab)
	code := make([]byte, q.M)
	recon := make([]float32, d)
	for i := 10; i < 30; i++ {
		row := data[i*d : (i+1)*d]
		q.Encode(row, code)
		q.Decode(code, recon)
		var viaTab float32
		for m := 0; m < q.M; m++ {
			viaTab += tab[m*q.KSub+int(code[m])]
		}
		direct := vec.L2SqrRef(query, recon)
		if diff := math.Abs(float64(viaTab - direct)); diff > 1e-2 {
			t.Fatalf("row %d: table ADC %v vs direct %v", i, viaTab, direct)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	q, _, _, _ := trainSmall(t, 4, 16)
	if q.SizeBytes() != int64(4*16*8)*4 {
		t.Errorf("SizeBytes = %d", q.SizeBytes())
	}
}
