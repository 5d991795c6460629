package persist

import (
	"encoding/binary"
	"hash/crc32"
)

// magic identifies persist files; a file without it is not scanned for
// records (recovery counts it as corrupt and moves on).
var magic = []byte("PRST\x00\x01\r\n")

// recordHeaderLen is the framing overhead per record: 4-byte payload
// length + 4-byte CRC-32C.
const recordHeaderLen = 8

// seqLen is the epoch sequence prefix inside every payload.
const seqLen = 8

// maxRecordLen caps a single record so a corrupted length field cannot ask
// recovery to allocate gigabytes. Controller state is kilobytes; 64 MiB is
// beyond any plausible topology.
const maxRecordLen = 64 << 20

// castagnoli is the CRC-32C table (the checksum with hardware support on
// both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord frames (seq, body) onto buf: length, CRC, payload where
// payload = seq || body. The CRC covers the whole payload, so a bit flip in
// either the sequence number or the body is detected.
func appendRecord(buf []byte, seq uint64, body []byte) []byte {
	payloadLen := seqLen + len(body)
	var hdr [recordHeaderLen + seqLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint64(hdr[recordHeaderLen:], seq)
	crc := crc32.Update(0, castagnoli, hdr[recordHeaderLen:])
	crc = crc32.Update(crc, castagnoli, body)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, body...)
}

// record is one decoded journal entry. frame is its whole framed
// image (header and payload), which ends with body; a record that was not
// read from a framed image may leave it nil.
type record struct {
	seq   uint64
	body  []byte
	frame []byte
}

// readRecord decodes the record at the head of b. ok reports a record whose
// length fits and whose checksum holds; rest is the remaining bytes after
// it. A short, oversized, or checksum-failing head returns ok=false — the
// caller treats everything from there on as a torn/corrupt tail.
func readRecord(b []byte) (rec record, rest []byte, ok bool) {
	if len(b) < recordHeaderLen+seqLen {
		return record{}, nil, false
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[0:4]))
	if payloadLen < seqLen || payloadLen > maxRecordLen || len(b) < recordHeaderLen+payloadLen {
		return record{}, nil, false
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	payload := b[recordHeaderLen : recordHeaderLen+payloadLen]
	if crc32.Checksum(payload, castagnoli) != want {
		return record{}, nil, false
	}
	return record{
		seq:   binary.LittleEndian.Uint64(payload[:seqLen]),
		body:  payload[seqLen:],
		frame: b[:recordHeaderLen+payloadLen],
	}, b[recordHeaderLen+payloadLen:], true
}

// scanRecords decodes the valid record prefix of a framed file image
// (magic + records). It never fails: a missing magic yields no records and
// corrupt=1; a bad record stops the scan with torn=true. This
// stop-at-first-bad rule is what makes recovery a prefix of committed
// epochs — records after a torn one could have been reordered by the
// filesystem, so they are never trusted.
func scanRecords(b []byte) (recs []record, torn bool, corrupt int) {
	return appendRecords(nil, b)
}

// appendRecords is scanRecords appending to recs, so a repeated scan can
// reuse one slice. The records alias b.
func appendRecords(recs []record, b []byte) (_ []record, torn bool, corrupt int) {
	if len(b) < len(magic) || string(b[:len(magic)]) != string(magic) {
		if len(b) > 0 {
			corrupt++
		}
		return recs, len(b) > 0, corrupt
	}
	rest := b[len(magic):]
	for len(rest) > 0 {
		rec, tail, ok := readRecord(rest)
		if !ok {
			return recs, true, corrupt + 1
		}
		recs = append(recs, rec)
		rest = tail
	}
	return recs, false, corrupt
}
