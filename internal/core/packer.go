package core

import (
	"cmp"
	"fmt"
	"slices"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
)

// PackResult describes one packed shuffle chunk.
type PackResult struct {
	Bytes   int  // payload length starting at the requested offset
	Records int  // whole records included
	EOF     bool // no records remain after this chunk
}

// Pack selects whole records from body[offset:] for one shuffle packet.
//
// sizeAware is design decision D4 (§III-C.3, §IV-C): the OSU design
// "considers the size of the key-value pair before the transfer", filling
// up to softLimit bytes; Hadoop-A packs a fixed number of pairs
// (maxRecords) regardless of size, which with Sort's ≤20,000-byte records
// yields wildly oversized packets and poor pipeline overlap.
//
// hardLimit is the copier's registered buffer capacity: the packet may
// never exceed it. A single record larger than hardLimit is an error (the
// copier sizes its buffer above the workload's maximum record). At least
// one record is always packed when any remain, so progress is guaranteed
// even when the first record exceeds softLimit.
func Pack(body []byte, offset int64, softLimit, hardLimit, maxRecords int, sizeAware bool) (PackResult, error) {
	if offset < 0 || offset > int64(len(body)) {
		return PackResult{}, fmt.Errorf("core: pack offset %d outside body of %d", offset, len(body))
	}
	if softLimit > hardLimit {
		softLimit = hardLimit
	}
	if maxRecords < 1 {
		maxRecords = 1
	}
	rest := body[offset:]
	if len(rest) == 0 {
		return PackResult{EOF: true}, nil
	}
	var res PackResult
	for res.Records < maxRecords && res.Bytes < len(rest) {
		n, err := kv.NextRecordSize(rest[res.Bytes:])
		if err != nil {
			return PackResult{}, fmt.Errorf("core: corrupt record at offset %d: %w", offset+int64(res.Bytes), err)
		}
		if res.Records > 0 {
			// Stop before exceeding the budget that applies to this mode.
			limit := hardLimit
			if sizeAware {
				limit = softLimit
			}
			if res.Bytes+n > limit {
				break
			}
		} else if n > hardLimit {
			return PackResult{}, fmt.Errorf("core: record of %d bytes exceeds copier buffer of %d", n, hardLimit)
		}
		res.Bytes += n
		res.Records++
	}
	res.EOF = int(offset)+res.Bytes == len(body)
	return res, nil
}

// packRule is the one chunking rule (D4) a copier asks by and the cache
// cuts runs by: Pack with soft limit mapred.rdma.packet.size, hard limit
// the copier's slot — 64 KiB more, for the record that crosses the soft
// limit — and at most mapred.rdma.kvpairs.per.packet records.
type packRule struct {
	soft, hard, maxRecords int
	sizeAware              bool
}

func packRuleOf(conf *config.Config, sizeAware bool) packRule {
	packet := int(conf.Int(config.KeyRDMAPacketBytes))
	return packRule{packet, packet + 64<<10, int(conf.Int(config.KeyKVPairsPerPacket)), sizeAware}
}

// chunkMark ends one chunk of a cached run's record body, which runs from
// the previous mark's end (0 for the first) and holds records records.
type chunkMark struct {
	end     int64
	records int32
}

// cut walks body once under r and returns every chunk's mark, or nil when
// the walk fails: requests for that body take the walk, which reports it.
func (r packRule) cut(body []byte) []chunkMark {
	marks := make([]chunkMark, 0, len(body)/max(r.soft, 1)+1)
	for off := int64(0); r.hard > 0 && off < int64(len(body)); {
		res, err := Pack(body, off, r.soft, r.hard, r.maxRecords, r.sizeAware)
		if err != nil {
			return nil
		}
		off += int64(res.Bytes)
		marks = append(marks, chunkMark{off, int32(res.Records)})
	}
	return marks
}

// chunk packs the chunk of body at offset for a request asking for at
// most maxBytes and maxRecords. When the request asks by r and a chunk of
// marks, body's cut under r, starts at offset, binary search finds it and
// no record is read; anything else takes the walk.
func (r packRule) chunk(body []byte, marks []chunkMark, offset int64, maxBytes, maxRecords int) (PackResult, error) {
	if maxBytes == r.hard && maxRecords == r.maxRecords {
		i, found := slices.BinarySearchFunc(marks, offset, func(m chunkMark, off int64) int { return cmp.Compare(m.end, off) })
		if found {
			i++ // the chunk after the one ending at offset
		}
		if (found || offset == 0) && i < len(marks) {
			return PackResult{Bytes: int(marks[i].end - offset), Records: int(marks[i].records), EOF: i == len(marks)-1}, nil
		}
	}
	return Pack(body, offset, r.soft, maxBytes, maxRecords, r.sizeAware)
}
