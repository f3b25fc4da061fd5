// The write-ahead log under the load the report tiers put on it: typed
// appends of the two record sizes the ingest workloads write, from every
// proc at once, with the compaction the server would run beside them.
// `make bench-json` snapshots it into BENCH_ingest.json at -cpu 1,2.
package mcim_test

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// BenchmarkWALAppend measures wal.AppendTyped on a commutative log (the
// report tiers' configuration) while 4 MiB segments roll and a Roll+Seal
// of a 40 KB snapshot runs after every 64 MiB, as the server's background
// compaction does. ns/op is the mean; p99-ns/op is the 99th percentile of
// the individual appends — the stall a writer sees behind a roll or a seal.
func BenchmarkWALAppend(b *testing.B) {
	const compactAfter = 64 << 20
	snapshot := bytes.Repeat([]byte{0x5a}, 40<<10)
	for _, size := range []struct {
		name  string
		bytes int
	}{{"66k", 66_064}, {"600b", 600}} {
		for _, policy := range []wal.SyncPolicy{wal.SyncInterval, wal.SyncNever} {
			b.Run(size.name+"/"+string(policy), func(b *testing.B) {
				log, err := wal.Open(b.TempDir(), wal.Options{Sync: policy, Commutative: true})
				if err != nil {
					b.Fatal(err)
				}
				defer log.Close()
				payload := bytes.Repeat([]byte{0xa5}, size.bytes)
				var (
					compacting  atomic.Bool
					compactions sync.WaitGroup
				)
				compacted := make(chan error, 1)
				compact := func() {
					defer compactions.Done()
					cover, err := log.Roll()
					if err == nil {
						err = log.Seal(cover, snapshot)
					}
					compacting.Store(false)
					if err != nil {
						select {
						case compacted <- err:
						default:
						}
					}
				}
				lat := make([]time.Duration, b.N)
				var next atomic.Int64
				b.SetBytes(int64(size.bytes))
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						start := time.Now()
						err := log.AppendTyped('W', payload)
						lat[next.Add(1)-1] = time.Since(start)
						if err != nil {
							b.Error(err)
							return
						}
						if log.BytesSinceSeal() >= compactAfter && compacting.CompareAndSwap(false, true) {
							compactions.Add(1)
							go compact()
						}
					}
				})
				b.StopTimer()
				compactions.Wait()
				select {
				case err := <-compacted:
					b.Fatal(err)
				default:
				}
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns/op")
			})
		}
	}
}
