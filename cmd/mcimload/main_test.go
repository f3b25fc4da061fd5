package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
)

// TestAccuracyOmittedOnReusedServer drives one server twice per tier. The
// first run starts from an empty aggregate and scores its accuracy; the
// second finds the first run's reports already there, so the server's
// estimates no longer describe this run's population alone and the -json
// summary must leave the accuracy fields out instead of reporting a
// class-size error of ~1.0.
func TestAccuracyOmittedOnReusedServer(t *testing.T) {
	const classes, items, users = 3, 12, 600
	proto, err := core.NewProtocol("ptscp", classes, items, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	meanProto, err := core.NewNumericProtocol("cpmean", classes, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collect.NewServer(proto, collect.WithMean(meanProto))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	freqProbe, err := collect.NewClient(ts.URL, ts.Client(), 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := buildDataset("uniform", classes, items, users, 1)
	if err != nil {
		t.Fatal(err)
	}
	meanProbe, err := collect.NewMeanClient(ts.URL, ts.Client(), 1)
	if err != nil {
		t.Fatal(err)
	}
	meanData := buildMeanDataset(classes, users, 1)

	for run, fresh := range []bool{true, false} {
		var freq, mean summary
		runFreq(ts.URL, ts.Client(), freqProbe, data, &freq, 64, false, true, 2, 1, true)
		runMean(ts.URL, ts.Client(), meanProbe, meanData, &mean, 2, 64, false, true, 1, true)
		if srv.Reports() != (run+1)*users || srv.MeanReports() != (run+1)*users {
			t.Fatalf("run %d: server holds %d frequency and %d mean reports", run, srv.Reports(), srv.MeanReports())
		}
		scored := freq.RMSE != nil && freq.ClassSizeRelErr != nil && mean.MeanMAE != nil && mean.ClassSizeRelErr != nil
		unscored := freq.RMSE == nil && freq.ClassSizeRelErr == nil && mean.MeanMAE == nil && mean.ClassSizeRelErr == nil
		if fresh && !scored {
			t.Fatalf("run %d on a fresh server left accuracy unscored: %+v %+v", run, freq, mean)
		}
		if !fresh && !unscored {
			t.Fatalf("run %d on a reused server scored the all-time estimates against its own truth: %+v %+v", run, freq, mean)
		}
		blob, err := json.Marshal(freq)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(blob), "class_size_rel_err"); got != fresh {
			t.Fatalf("run %d: class_size_rel_err present in the summary = %v, want %v", run, got, fresh)
		}
	}
}
