package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"time"

	"unimem"
	"unimem/internal/crypto"
	"unimem/internal/meta"
	"unimem/internal/secmem"
	"unimem/internal/sim"
	"unimem/internal/tracker"
)

// image is the surface the image workloads drive: *unimem.Protected, or
// tracedImage, which does the same through secmem and tracker directly.
type image interface {
	Read(addr uint64) ([]byte, error)
	Write(addr uint64, plaintext []byte) error
	FlushDetection()
	Save(w io.Writer) (roots []uint64, err error)
}

// op is one 64B access.
type op struct {
	addr  uint64
	write bool
}

// opSource yields a workload's timed ops one cycle at a time. Each cycle
// holds the workload's full mix in fixed proportions, in a seeded order,
// so runs of different seeds differ in addresses, never in the mix.
type opSource interface{ cycle() []op }

// imageSpec describes one image workload.
type imageSpec struct {
	name string
	size uint64
	// setup fills the image before timing starts.
	setup func(x *imageRun, seed uint64)
	ops   func(seed uint64) opSource
	// targets are the granularities the workload must land ops on.
	targets []meta.Gran
}

// Image-stream layout: the first streamA chunks are swept as whole 32KB
// chunks; each of the next streamB chunks has one hot 4KB span that the
// 4KB sweeps target. streamB exceeds the tracker's 12 entries, so a chunk's
// window is evicted (and its span detected) before the chunk is revisited.
const (
	streamA = 32
	streamB = 32
)

var streamImage = imageSpec{
	name:    "image-stream",
	size:    (streamA + streamB) * meta.ChunkSize,
	setup:   setupStream,
	ops:     func(seed uint64) opSource { return newStreamOps(seed) },
	targets: []meta.Gran{meta.Gran4K, meta.Gran32K},
}

// imageRun drives one image and keeps a plaintext shadow copy of it.
type imageRun struct {
	img      image
	shadow   []byte
	seed     uint64
	writes   uint64
	buf      [meta.BlockSize]byte
	failed   uint64
	firstErr error
	// lat collects the latencies of the ops timed by timed.
	lat latencies
}

func newImageRun(img image, size, seed uint64) *imageRun {
	return &imageRun{img: img, shadow: make([]byte, size), seed: seed}
}

// write stores fresh seeded plaintext at addr and returns the call's time.
func (x *imageRun) write(addr uint64) time.Duration {
	x.writes++
	binary.LittleEndian.PutUint64(x.buf[:], mix(x.seed^addr^x.writes<<40))
	for i := 8; i < len(x.buf); i += 8 {
		binary.LittleEndian.PutUint64(x.buf[i:], mix(binary.LittleEndian.Uint64(x.buf[i-8:])))
	}
	t0 := time.Now()
	err := x.img.Write(addr, x.buf[:])
	d := time.Since(t0)
	if err != nil {
		x.fail(fmt.Errorf("write %#x: %w", addr, err))
		return d
	}
	copy(x.shadow[addr:], x.buf[:])
	return d
}

// read fetches addr, checks it against the shadow copy and returns the
// call's time.
func (x *imageRun) read(addr uint64) time.Duration {
	t0 := time.Now()
	got, err := x.img.Read(addr)
	d := time.Since(t0)
	if err != nil {
		x.fail(fmt.Errorf("read %#x: %w", addr, err))
	} else if !bytes.Equal(got, x.shadow[addr:addr+meta.BlockSize]) {
		x.fail(fmt.Errorf("read %#x: plaintext differs from the shadow copy", addr))
	}
	return d
}

func (x *imageRun) fail(err error) {
	x.failed++
	if x.firstErr == nil {
		x.firstErr = err
	}
}

// minWindowOps is the smallest window, in ops, the timed phase reports.
const minWindowOps = 3000

// timed runs whole cycles of src: exactly cycles of them when cycles > 0,
// otherwise until seconds have passed, and adds each op's latency to x.lat.
// It returns the full windows, the ops run and the cycles run; a trailing
// partial window counts in ops only.
func (x *imageRun) timed(src opSource, seconds float64, cycles int) ([]window, int, int) {
	var ws []window
	var w window
	ops, c := 0, 0
	t0 := time.Now()
	start := t0
	for ; cycles > 0 && c < cycles || cycles == 0 && (c == 0 || time.Since(t0).Seconds() < seconds); c++ {
		for _, o := range src.cycle() {
			if o.write {
				us := micros(x.write(o.addr))
				x.lat.all.add(us)
				x.lat.write.add(us)
			} else {
				us := micros(x.read(o.addr))
				x.lat.all.add(us)
				x.lat.read.add(us)
			}
			w.ops++
			ops++
		}
		if w.ops >= minWindowOps {
			now := time.Now()
			w.wall = now.Sub(start)
			ws = append(ws, w)
			w, start = window{}, now
		}
	}
	return ws, ops, c
}

// setupStream writes the image sequentially. The 32KB region is written
// chunk by chunk, so the tracker promotes each chunk to one 32KB unit. The
// 4KB region is written one 4KB span at a time, round-robin over its
// chunks, ending with each chunk's hot span: every window then holds one
// span, and each chunk ends as a 4KB unit over its hot span with 64B units
// elsewhere.
func setupStream(x *imageRun, seed uint64) {
	for a := uint64(0); a < streamA*meta.ChunkSize; a += meta.BlockSize {
		x.write(a)
	}
	src := newStreamOps(seed)
	r := newRNG(seed ^ 0x5e7)
	perms := make([][]int, streamB)
	for c := range perms {
		perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
		shuffle(r, perm)
		for i, s := range perm { // move the hot span last
			if s == src.hot[c] {
				perm[i], perm[7] = perm[7], perm[i]
				break
			}
		}
		perms[c] = perm
	}
	for k := 0; k < 8; k++ {
		for c := 0; c < streamB; c++ {
			base := src.spanBase(c, perms[c][k])
			for a := base; a < base+4096; a += meta.BlockSize {
				x.write(a)
			}
		}
	}
}

// streamOps yields cycles of twenty sweeps: three read and one write sweep
// of a whole 32KB chunk, and twelve read and four write sweeps of a 4KB hot
// span. In four of the 4KB sweeps the chunk's hot span first moves to
// another span, as an accelerator's tile moves, which makes the tracker
// switch the chunk's granularity once the window closes.
type streamOps struct {
	r   *rng
	hot [streamB]int
}

func newStreamOps(seed uint64) *streamOps {
	s := &streamOps{r: newRNG(seed ^ 0x57e)}
	for c := range s.hot {
		s.hot[c] = s.r.intn(8)
	}
	return s
}

func (s *streamOps) spanBase(c, span int) uint64 {
	return uint64(streamA+c)*meta.ChunkSize + uint64(span)*4096
}

func (s *streamOps) cycle() []op {
	type sweep struct{ coarse, write, move bool }
	var sweeps []sweep
	for i := 0; i < 4; i++ {
		sweeps = append(sweeps, sweep{coarse: true, write: i == 0})
		for j := 0; j < 4; j++ {
			sweeps = append(sweeps, sweep{write: j == 0, move: j == 1+i%3})
		}
	}
	shuffle(s.r, sweeps)
	var ops []op
	for _, sw := range sweeps {
		var base, n uint64
		if sw.coarse {
			base, n = uint64(s.r.intn(streamA))*meta.ChunkSize, meta.ChunkSize
		} else {
			c := s.r.intn(streamB)
			if sw.move {
				s.hot[c] = (s.hot[c] + 1 + s.r.intn(7)) % 8
			}
			base, n = s.spanBase(c, s.hot[c]), 4096
		}
		for a := base; a < base+n; a += meta.BlockSize {
			ops = append(ops, op{addr: a, write: sw.write})
		}
	}
	return ops
}

func imageRunners(spec imageSpec) runners {
	return runners{
		run:    func(seed uint64, seconds float64) *report { return runImage(spec, seed, seconds) },
		traced: func(seed uint64, seconds float64) *report { return traceImage(spec, seed, seconds) },
	}
}

// imageKey is the seed the image's keys derive from.
func imageKey(seed uint64) uint64 { return mix(seed ^ 0x1a6e) }

// setupProtected builds and fills one Protected image, as set-up does.
func setupProtected(spec imageSpec, seed uint64) (*unimem.Protected, *imageRun) {
	p := unimem.NewProtected(spec.size, imageKey(seed))
	x := newImageRun(p, spec.size, seed)
	spec.setup(x, seed)
	p.FlushDetection()
	return p, x
}

// runImage is the untraced image workload.
func runImage(spec imageSpec, seed uint64, seconds float64) *report {
	r := newReport()
	var p *unimem.Protected
	var x *imageRun
	var setups []float64
	for k := 0; k < 3; k++ {
		p, x = nil, nil
		runtime.GC() // the previous image is garbage; free it first
		t0 := time.Now()
		p, x = setupProtected(spec, seed)
		setups = append(setups, time.Since(t0).Seconds())
		r.check(x.failed == 0, "set-up: %v", x.firstErr)
	}
	runtime.GC()

	alloc0 := totalAlloc()
	t0 := time.Now()
	ws, ops, cycles := x.timed(spec.ops(seed), seconds, 0)
	wall := time.Since(t0)
	allocs := totalAlloc() - alloc0
	r.attempted += uint64(ops)
	r.failed += x.failed
	if x.failed > 0 {
		r.note("CHECK FAILED: %d of %d ops failed; first: %v", x.failed, ops, x.firstErr)
	}
	tamperChecks(r, p, spec.size, seed)

	r.note("%s: image=%d B ops=%d cycles=%d wall_s=%.3f", spec.name, spec.size, ops, cycles, wall.Seconds())
	rd, wr := &x.lat.read, &x.lat.write
	r.note("read_p50_us=%.2f read_p99_us=%.2f (us, %d samples)", rd.quantile(0.5), rd.quantile(0.99), rd.n)
	r.note("write_p50_us=%.2f write_p99_us=%.2f (us, %d samples)", wr.quantile(0.5), wr.quantile(0.99), wr.n)
	setEndToEnd(r, ws, &x.lat.all, float64(allocs)/float64(max(ops, 1)), median(setups))
	return r
}

// tamperable is the attack surface of *unimem.Protected the tamper checks
// use.
type tamperable interface {
	GranOf(addr uint64) unimem.Gran
	TamperData(addr uint64) bool
	TamperMAC(addr uint64) bool
	TamperCounter(addr uint64) bool
	Verify(addr uint64) error
	Snapshot() *unimem.Snapshot
	Restore(s *unimem.Snapshot)
}

// tamperChecks plants, at every granularity present in the image, one
// seeded data, MAC and counter tamper, and checks that Verify rejects each
// and accepts the image again once the tamper is undone. A change that
// skips verification fails here.
func tamperChecks(r *report, p tamperable, size, seed uint64) {
	var byGran [4][]uint64
	for a := uint64(0); a < size; a += meta.BlockSize {
		g := p.GranOf(a)
		byGran[g] = append(byGran[g], a)
	}
	attacks := []struct {
		name string
		fn   func(uint64) bool
	}{{"TamperData", p.TamperData}, {"TamperMAC", p.TamperMAC}, {"TamperCounter", p.TamperCounter}}
	rg := newRNG(seed ^ 0x7a3)
	for g, blocks := range byGran {
		if len(blocks) == 0 {
			continue
		}
		for _, atk := range attacks {
			snap := p.Snapshot()
			landed := false
			// A counter kept on chip is out of the attacker's reach; try a
			// few blocks before concluding that none is reachable.
			for try := 0; try < 8 && !landed; try++ {
				a := blocks[rg.intn(len(blocks))]
				if landed = atk.fn(a); !landed {
					continue
				}
				r.check(p.Verify(a) != nil, "%s at %#x (%s unit) went undetected", atk.name, a, granNames[g])
				p.Restore(snap)
				r.check(p.Verify(a) == nil, "image does not verify at %#x after undoing %s", a, atk.name)
			}
			if !landed {
				r.note("%s: no %s unit with an off-chip counter was found", atk.name, granNames[g])
			}
		}
	}
}

// tracedImage drives secmem.Memory and tracker.Tracker the way
// unimem.Protected does, timing each call into either layer.
type tracedImage struct {
	mem *secmem.Memory
	trk *tracker.Tracker
	now int64
	t   *tracer

	access, apply *layerStat
	read, write   [4]*layerStat
	ops           [4]uint64
	detections    uint64
	switches      uint64
	switchNs      int64
}

func newTracedImage(size, key uint64, t *tracer) *tracedImage {
	p := &tracedImage{
		mem:    secmem.New(size, key),
		trk:    tracker.New(tracker.DefaultConfig()),
		t:      t,
		access: t.layer("tracker.AccessRange"),
		apply:  t.layer("secmem.ApplyDetection"),
	}
	for g, n := range granNames {
		p.read[g] = t.layer("secmem.Read." + n)
		p.write[g] = t.layer("secmem.Write." + n)
	}
	return p
}

// track mirrors Protected.track: one access per 1000 ps of logical time,
// detections applied eagerly.
func (p *tracedImage) track(addr uint64) {
	p.now += 1000
	p.t.enter(p.access)
	dets := p.trk.AccessRange(addr, meta.BlockSize, sim.Time(p.now))
	p.t.exit()
	p.applyAll(dets)
}

func (p *tracedImage) applyAll(dets []tracker.Detection) {
	for _, det := range dets {
		p.detections++
		switching := p.mem.Table().Current(det.Chunk) != det.Stream
		t0 := p.t.now()
		p.t.enter(p.apply)
		_ = p.mem.ApplyDetection(det.Chunk, det.Stream) // Protected drops this error too; a failed switch shows in later reads
		p.t.exit()
		if switching {
			p.switches++
			p.switchNs += p.t.now() - t0
		}
	}
}

func (p *tracedImage) Read(addr uint64) ([]byte, error) {
	p.track(addr)
	g := p.mem.GranOf(addr)
	p.ops[g]++
	p.t.enter(p.read[g])
	b, err := p.mem.Read(addr)
	p.t.exit()
	return b, err
}

func (p *tracedImage) Write(addr uint64, plaintext []byte) error {
	p.track(addr)
	g := p.mem.GranOf(addr)
	p.ops[g]++
	p.t.enter(p.write[g])
	err := p.mem.Write(addr, plaintext)
	p.t.exit()
	return err
}

func (p *tracedImage) FlushDetection() { p.applyAll(p.trk.Flush()) }

func (p *tracedImage) Save(w io.Writer) ([]uint64, error) { return p.mem.Save(w) }

// saveDigest hashes an image's saved off-chip state and on-chip roots.
func saveDigest(img image) (string, error) {
	h := sha256.New()
	roots, err := img.Save(h)
	if err != nil {
		return "", err
	}
	for _, v := range roots {
		binary.Write(h, binary.LittleEndian, v) // hash writes never fail
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16]), nil
}

// traceImage is the traced image workload. It runs the workload untraced on
// unimem.Protected and, alternating with it, the same ops on a tracedImage
// set up the same way; it checks that both end with the same saved image,
// times the crypto primitives in isolation, and plants the tamper checks.
func traceImage(spec imageSpec, seed uint64, seconds float64) *report {
	r := newReport()
	t := newTracer()
	r.trace = t
	setPerLayerZero(r)
	t.begin("run")
	defer t.end()

	t.begin("setup-untraced")
	p, x := setupProtected(spec, seed)
	t.end()
	t.begin("setup-traced")
	ti := newTracedImage(spec.size, imageKey(seed), t)
	y := newImageRun(ti, spec.size, seed)
	spec.setup(y, seed)
	ti.FlushDetection()
	t.end()

	// The two sides alternate in batches of whole cycles, so a drift in
	// the host's speed reaches both alike.
	runtime.GC()
	t.resetLayers()
	ti.ops, ti.detections, ti.switches, ti.switchNs = [4]uint64{}, 0, 0, 0
	before := ti.mem.Stats
	srcX, srcY := spec.ops(seed), spec.ops(seed)
	batch := max(1, minWindowOps/len(spec.ops(seed).cycle()))
	var plainWall, tracedWall time.Duration
	ops, tracedOps := 0, 0
	for t0 := time.Now(); ops == 0 || time.Since(t0).Seconds() < seconds; {
		t.begin("timed-untraced")
		_, n, _ := x.timed(srcX, 0, batch)
		plainWall += t.end()
		t.begin("timed-traced")
		_, m, _ := y.timed(srcY, 0, batch)
		tracedWall += t.end()
		ops, tracedOps = ops+n, tracedOps+m
	}
	after := ti.mem.Stats

	r.attempted += uint64(ops + tracedOps)
	r.failed += x.failed + y.failed
	if x.failed+y.failed > 0 {
		r.note("CHECK FAILED: ops failed; first: %v %v", x.firstErr, y.firstErr)
	}
	want, err1 := saveDigest(p)
	got, err2 := saveDigest(ti)
	r.check(err1 == nil && err2 == nil && want == got && ops == tracedOps,
		"traced image (%s, %d ops) differs from Protected's (%s, %d ops): %v %v", got, tracedOps, want, ops, err1, err2)
	r.note("saved image digest: %s (%d ops each side)", want, ops)
	total := uint64(0)
	for _, n := range ti.ops {
		total += n
	}
	for g, n := range ti.ops {
		r.set("secmem.ops."+granNames[g], float64(n), "count")
		r.set("secmem.read_ns."+granNames[g], ti.read[g].meanNs(), "ns")
		r.set("secmem.write_ns."+granNames[g], ti.write[g].meanNs(), "ns")
		r.note("ops landing in %s units: %d (%.1f%%)", granNames[g], n, 100*float64(n)/float64(max(total, 1)))
	}
	for _, g := range spec.targets {
		r.check(ti.ops[g] > 0, "no op landed in a %s unit", granNames[g])
	}

	t.begin("crypto")
	cryptoCosts(r, imageKey(seed))
	t.end()
	t.begin("tamper")
	tamperChecks(r, p, spec.size, seed)
	t.end()

	r.set("tracker.access_ns", ti.access.meanNs(), "ns")
	r.set("tracker.detections", float64(ti.detections), "count")
	if ti.switches > 0 {
		r.set("secmem.apply_detection_ns", float64(ti.switchNs)/float64(ti.switches), "ns")
	}
	r.set("secmem.promotions", float64(after.Promotions-before.Promotions), "count")
	r.set("secmem.demotions", float64(after.Demotions-before.Demotions), "count")
	r.set("secmem.verified_per_op", float64(after.Verified-before.Verified)/float64(max(tracedOps, 1)), "count")
	r.set("trace_overhead_ratio", tracedWall.Seconds()/plainWall.Seconds(), "ratio")
	r.notes = append(r.notes, t.selfSeconds()...)
	return r
}

var macSink crypto.MAC

// cryptoCosts times the MAC and sealing primitives in isolation, under the
// image's key.
func cryptoCosts(r *report, key uint64) {
	e := crypto.NewEngine(key)
	block := make([]byte, meta.BlockSize)
	counters := make([]uint64, 8)
	fine := make([]crypto.MAC, meta.BlocksPerChunk)
	perCall := func(n int, fn func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	const n = 20000
	m0 := mallocs()
	r.set("crypto.block_mac_ns", perCall(n, func(i int) { fine[i%len(fine)] = e.BlockMAC(uint64(i)*64, uint64(i), block) }), "ns")
	r.set("crypto.block_mac_allocs", float64(mallocs()-m0)/n, "count")
	r.set("crypto.nested_mac_ns", perCall(40, func(int) { macSink = e.NestedMAC(fine) }), "ns")
	r.set("crypto.node_mac_ns", perCall(n, func(i int) { macSink = e.NodeMAC(uint64(i)*64, uint64(i), counters) }), "ns")
	r.set("crypto.seal_ns", perCall(n, func(i int) { block = e.Seal(uint64(i)*64, uint64(i), block) }), "ns")
}
