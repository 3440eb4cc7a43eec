package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"strings"

	"repro/internal/data/adult"
	"repro/internal/dataset"
)

// genChunk bounds how many Adult rows are generated in memory at once:
// large inputs are written chunk by chunk, each from its own derived
// seed, so the benchmark's own memory stays small.
const genChunk = 100_000

// csvInput is a generated training file.
type csvInput struct {
	path   string
	rows   int
	bytes  int64
	sha256 string
}

// genAdultCSV writes a synthetic Adult CSV of about preRows/2 rows
// (the generator undersamples to income parity) and fingerprints it.
func genAdultCSV(path string, seed int64, preRows int) (*csvInput, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	w := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	in := &csvInput{path: path}
	var buf bytes.Buffer
	for c := 0; c*genChunk < preRows; c++ {
		n := min(genChunk, preRows-c*genChunk)
		ds, err := adult.Generate(adult.Config{Seed: seed*1_000_003 + int64(c), Rows: n})
		if err != nil {
			f.Close()
			return nil, err
		}
		buf.Reset()
		if err := dataset.WriteCSV(&buf, ds); err != nil {
			f.Close()
			return nil, err
		}
		body := buf.Bytes()
		if c > 0 { // one header per file
			body = body[bytes.IndexByte(body, '\n')+1:]
		}
		if _, err := w.Write(body); err != nil {
			f.Close()
			return nil, err
		}
		in.rows += ds.N()
		in.bytes += int64(len(body))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))
	fmt.Printf("input %s: %d rows, %d bytes, sha256 %s\n", baseName(path), in.rows, in.bytes, in.sha256)
	return in, nil
}

// heldOut generates rows the served model never trained on, from a
// seed disjoint from every training seed.
func heldOut(seed int64, preRows int) (*dataset.Dataset, error) {
	return adult.Generate(adult.Config{Seed: -1 - seed, Rows: preRows})
}

// fingerprint accumulates a sha256 over a run's generated payloads.
type fingerprint struct{ h hash.Hash }

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

func (f *fingerprint) add(b []byte) { f.h.Write(b) }

func (f *fingerprint) String() string { return hex.EncodeToString(f.h.Sum(nil)) }

var (
	adultFeatures  = strings.Join(adult.FeatureNames, ",")
	adultSensitive = adult.SensitiveNames
)

func baseName(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
