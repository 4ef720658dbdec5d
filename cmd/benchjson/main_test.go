package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: unimem
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSweepWorkers1-8      	       1	 987654321 ns/op	  123456 B/op	    2345 allocs/op
BenchmarkSweepWorkersMax-8    	       1	 123456789 ns/op	  234567 B/op	    3456 allocs/op
PASS
ok  	unimem	2.345s
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(f.Results))
	}
	one := f.Results[0]
	if one.Name != "SweepWorkers1" || one.Workers != 1 || one.Procs != 8 {
		t.Errorf("first record dimensions wrong: %+v", one)
	}
	if one.Scheme != "conventional+ours" {
		t.Errorf("scheme = %q", one.Scheme)
	}
	if one.NsPerOp != 987654321 || one.AllocsPerOp != 2345 || one.BytesPerOp != 123456 {
		t.Errorf("metrics wrong: %+v", one)
	}
	max := f.Results[1]
	if max.Name != "SweepWorkersMax" || max.Workers != 8 {
		t.Errorf("Max record did not inherit procs as workers: %+v", max)
	}
	want := Host{CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", GOOS: "linux", GOARCH: "amd64"}
	if f.Host != want {
		t.Errorf("host = %+v, want %+v", f.Host, want)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	f, err := Parse(strings.NewReader("PASS\nok \tunimem\t1.0s\nBenchmark bogus line\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != 0 || f.Host != (Host{}) {
		t.Fatalf("noise parsed as results or host: %+v %+v", f.Results, f.Host)
	}
}
