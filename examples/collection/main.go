// End-to-end HTTP collection: an in-process aggregation server receives
// correlated-perturbation reports from simulated clients over real HTTP,
// then serves calibrated classwise estimates — the RAPPOR-style deployment
// shape of the paper's mechanism.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"

	mcim "repro"
	"repro/internal/collect"
)

func main() {
	const (
		classes = 3
		items   = 50
		eps     = 3.0
		users   = 5000
	)
	// Start the aggregation server on an ephemeral port, speaking the
	// paper's PTS-CP protocol.
	proto, err := mcim.NewProtocol("ptscp", classes, items, eps, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := collect.NewServer(proto)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler()) //nolint:errcheck — demo server dies with the process
	base := "http://" + ln.Addr().String()
	fmt.Printf("aggregation server on %s (c=%d d=%d ε=%v)\n", base, classes, items, eps)

	// Clients fetch /config, perturb locally and ship sparse reports in
	// batches of 500 (one POST /reports request each) via the buffered
	// client — the deployment shape for population-scale ingestion.
	client, err := collect.NewClient(base, nil, 77, collect.WithBatchSize(500))
	if err != nil {
		log.Fatal(err)
	}
	rng := mcim.NewRand(5)
	truth := make([][]int, classes)
	for c := range truth {
		truth[c] = make([]int, items)
	}
	for i := 0; i < users; i++ {
		cl := rng.Intn(classes)
		item := cl*10 + rng.Intn(5) // each class concentrated on its own block
		truth[cl][item]++
		if err := client.Buffer(mcim.Pair{Class: cl, Item: item}); err != nil {
			log.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %d reports in batches of 500 (each ε-LDP on the full pair)\n\n", users)

	est, err := client.Estimates()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("class  item  true  estimated")
	for c := 0; c < classes; c++ {
		for i := 0; i < items; i++ {
			if truth[c][i] == 0 {
				continue
			}
			fmt.Printf("%-6d %-5d %-5d %.0f\n", c, i, truth[c][i], est.Frequencies[c][i])
		}
	}
}
