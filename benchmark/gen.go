package main

import (
	"hash/crc32"
	"math/rand"

	"rdmamr/internal/kv"
	wl "rdmamr/internal/workload"
)

// Every input the program under test sees is made here (or by the
// repo's own seeded TeraGen) from the -seed flag: the same seed gives
// the same bytes, so operation counts, packets and bytes shuffled repeat
// exactly between runs of one seed.

// teraRecords returns n 100-byte TeraSort records with random keys and
// values. Key and value of one record share a backing array.
func teraRecords(rng *rand.Rand, n int) []kv.Record {
	buf := make([]byte, n*wl.TeraRecordLen)
	rng.Read(buf)
	recs := make([]kv.Record, n)
	for i := range recs {
		rec := buf[i*wl.TeraRecordLen : (i+1)*wl.TeraRecordLen]
		recs[i] = kv.Record{Key: rec[:wl.TeraKeyLen], Value: rec[wl.TeraKeyLen:]}
	}
	return recs
}

// randomWriterRecords returns records of RandomWriter's sizes (combined
// key+value up to 20,000 bytes, the Sort benchmark's distribution)
// totalling at least targetBytes of payload.
func randomWriterRecords(rng *rand.Rand, targetBytes int) []kv.Record {
	var recs []kv.Record
	for total := 0; total < targetBytes; {
		kl := wl.RandMinKey + rng.Intn(wl.RandMaxKey-wl.RandMinKey+1)
		vl := wl.RandMinValue + rng.Intn(wl.RandMaxValue-wl.RandMinValue+1)
		buf := make([]byte, kl+vl)
		rng.Read(buf)
		recs = append(recs, kv.Record{Key: buf[:kl], Value: buf[kl:]})
		total += kl + vl
	}
	return recs
}

// digest is an order-independent checksum of a record multiset: record
// count, payload bytes and the wrapping sum of per-record CRC-32C values.
// CRC-32C is hardware-assisted, so checking every delivered record costs
// the timed region little.
type digest struct {
	Count int64
	Bytes int64
	Sum   uint64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (d *digest) add(r kv.Record) {
	c := crc32.Update(crc32.Update(0, castagnoli, r.Key), castagnoli, r.Value)
	d.Sum += uint64(c)
	d.Count++
	d.Bytes += int64(len(r.Key) + len(r.Value))
}

func (d *digest) merge(o digest) {
	d.Count += o.Count
	d.Bytes += o.Bytes
	d.Sum += o.Sum
}

// planted is one shuffle job's map outputs: runs[m][r] is the encoded,
// key-sorted run of map m's partition r, and want[r] is what reducer r
// must receive.
type planted struct {
	runs     [][][]byte
	want     []digest
	runBytes int64 // encoded bytes of all runs: what one round moves
}

// plantPartitions generates maps×reduces sorted partitions of about
// partBytes payload each. tera selects 100-byte TeraSort records;
// otherwise records follow the RandomWriter distribution.
func plantPartitions(seed int64, maps, reduces, partBytes int, tera bool) *planted {
	rng := rand.New(rand.NewSource(seed))
	p := &planted{runs: make([][][]byte, maps), want: make([]digest, reduces)}
	for m := range p.runs {
		p.runs[m] = make([][]byte, reduces)
		for r := range p.runs[m] {
			var recs []kv.Record
			if tera {
				recs = teraRecords(rng, partBytes/wl.TeraRecordLen)
			} else {
				recs = randomWriterRecords(rng, partBytes)
			}
			kv.SortRecords(recs, kv.BytesComparator)
			for _, rec := range recs {
				p.want[r].add(rec)
			}
			run := kv.WriteRun(recs)
			p.runs[m][r] = run
			p.runBytes += int64(len(run))
		}
	}
	return p
}
