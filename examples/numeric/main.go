// Numerical items — the paper's future-work extension, implemented here:
// classwise MEAN estimation under ε-LDP on the (label, value) pair.
// A lab-test population reports (diagnosis, normalized lab value); the
// analyst needs per-diagnosis means. Compares the HEC strawman, separate
// perturbation (PTS-Mean) and the correlated mechanism (CP-Mean), whose
// deniable invalidity symbol is the numerical analogue of the validity
// flag.
//
// The second half serves the same estimation over HTTP: an in-process
// collection server mounts the mean tier (batched ingestion, one aggregate
// of counts), a client perturbs every pair locally with the canonical user
// index, and the served means come back bit-identical to the offline
// Estimate pass — the served tier is the offline estimator, deployed.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"reflect"

	mcim "repro"
	"repro/internal/collect"
)

func main() {
	const eps = 2.0
	rng := mcim.NewRand(31)

	// Three diagnosis groups with distinct normalized lab-value profiles.
	centers := []float64{0.55, -0.35, 0.05}
	sizes := []int{60000, 25000, 15000}
	data := &mcim.NumericDataset{Classes: 3, Name: "lab-values"}
	for c, mu := range centers {
		for i := 0; i < sizes[c]; i++ {
			x := mu + 0.25*rng.NormFloat64()
			if x > 1 {
				x = 1
			}
			if x < -1 {
				x = -1
			}
			data.Values = append(data.Values, mcim.NumericValue{Class: c, X: x})
		}
	}
	truth, _ := data.TrueMeans()

	pts, err := mcim.NewPTSMean(eps, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	cp, err := mcim.NewCPMeanEstimator(eps, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	estimators := []mcim.MeanEstimator{mcim.NewHECMean(eps), pts, cp}

	fmt.Printf("population: %d users, 3 diagnosis groups, ε=%v\n\n", data.N(), eps)
	fmt.Printf("%-10s %-10s", "group", "true mean")
	for _, e := range estimators {
		fmt.Printf(" %-10s", e.Name())
	}
	fmt.Println()
	results := make([][]float64, len(estimators))
	for i, e := range estimators {
		res, err := e.EstimateMeans(data, rng)
		if err != nil {
			log.Fatal(err)
		}
		results[i] = res
	}
	for c := range centers {
		fmt.Printf("%-10d %-10.3f", c, truth[c])
		for i := range estimators {
			fmt.Printf(" %-10.3f", results[i][c])
		}
		fmt.Println()
	}
	fmt.Println("\nHEC-Mean shrinks toward 0 (2/3 of each group is substituted noise);")
	fmt.Println("CP-Mean's difference estimator cancels mis-routed users exactly.")

	// --- Served ≡ offline -------------------------------------------------
	// Mount the mean tier on a collection server and drive it with the same
	// seed and user assignment as an offline pass; the HTTP pipeline must
	// reproduce the offline estimates bit for bit.
	const servedSeed = 99
	proto, err := mcim.NewNumericProtocol("cpmean", data.Classes, eps, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := collect.NewServer(nil, collect.WithMean(proto))
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler()) //nolint:errcheck — dies with the process
	base := "http://" + ln.Addr().String()

	client, err := collect.NewMeanClient(base, nil, servedSeed, collect.WithBatchSize(512))
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range data.Values {
		if err := client.Buffer(i, v); err != nil {
			log.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		log.Fatal(err)
	}
	served, err := client.Estimates()
	if err != nil {
		log.Fatal(err)
	}
	offline, err := cp.Estimate(data, mcim.NewRand(servedSeed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserved over HTTP (%d reports via %s): means %v\n",
		served.Reports, base, served.Means)
	fmt.Printf("served ≡ offline (means):       %v\n", reflect.DeepEqual(served.Means, offline.Means))
	fmt.Printf("served ≡ offline (class sizes): %v\n", reflect.DeepEqual(served.ClassSizes, offline.ClassSizes))
}
