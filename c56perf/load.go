package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"code56/internal/serve"
)

// Every block the benchmark writes starts with a stamp — the logical block
// number, the writer and the writer's sequence number — followed by a fill
// derived from the seed and the stamp. A read can therefore check, from
// its bytes alone, that it got a whole block that was really written to
// that address.
const stampBytes = 24

// setupWriter stamps the blocks written while the data set is filled.
const setupWriter = 0

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fillSeed(seed, block int64, writer, seq uint64) uint64 {
	return splitmix(splitmix(splitmix(uint64(seed)^uint64(block))^writer) ^ seq)
}

// stamp writes block's stamp and fill into buf (len a multiple of 8).
func stamp(buf []byte, seed, block int64, writer, seq uint64) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(block))
	binary.LittleEndian.PutUint64(buf[8:], writer)
	binary.LittleEndian.PutUint64(buf[16:], seq)
	x := fillSeed(seed, block, writer, seq)
	for i := stampBytes; i < len(buf); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// checkStamp verifies that buf holds a stamped block for address block and
// returns the writer and sequence number it carries.
func checkStamp(buf []byte, seed, block int64) (writer, seq uint64, err error) {
	if got := int64(binary.LittleEndian.Uint64(buf[0:])); got != block {
		return 0, 0, fmt.Errorf("block %d: stamp names block %d", block, got)
	}
	writer = binary.LittleEndian.Uint64(buf[8:])
	seq = binary.LittleEndian.Uint64(buf[16:])
	x := fillSeed(seed, block, writer, seq)
	for i := stampBytes; i < len(buf); i += 8 {
		x = splitmix(x)
		if binary.LittleEndian.Uint64(buf[i:]) != x {
			return 0, 0, fmt.Errorf("block %d: fill differs at byte %d (writer %d seq %d)", block, i, writer, seq)
		}
	}
	return writer, seq, nil
}

// zipf draws ranks in [0, n) with YCSB's Zipfian generator (Gray et al.,
// "Quickly generating billion-record synthetic databases"); scatter then
// hashes each rank onto a block, as YCSB's scrambled Zipfian does, so the
// hot blocks spread over the whole volume instead of sitting in its first
// stripes.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
	halfPowTheta             float64
	blocks                   int64
}

func newZipf(blocks int64, theta float64) *zipf {
	var zetan float64
	for i := int64(1); i <= blocks; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	n := float64(blocks)
	return &zipf{
		n: n, alpha: 1 / (1 - theta), zetan: zetan,
		eta:          (1 - math.Pow(2/n, 1-theta)) / (1 - zeta2/zetan),
		halfPowTheta: math.Pow(0.5, theta),
		blocks:       blocks,
	}
}

func (z *zipf) rank(r *rand.Rand) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfPowTheta {
		return 1
	}
	k := int64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.blocks {
		k = z.blocks - 1
	}
	return k
}

func (z *zipf) next(r *rand.Rand) int64 { return scatter(z.rank(r), z.blocks) }

func scatter(rank, blocks int64) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(rank))
	h.Write(b[:])
	return int64(h.Sum64() % uint64(blocks))
}

// reqHeader carries a request's id from the load generator to the traced
// handler, so spans and per-request deltas (wire time) can be joined.
const reqHeader = "X-Bench-Req"

// client is one keep-alive HTTP/1.1 connection to the volume: a closed- or
// open-loop worker issues one request at a time on it. The request is
// written and the response read on the worker's goroutine, without
// http.Transport's reader and writer goroutines per connection, so the
// client adds no goroutine hand-off to a request's latency.
type client struct {
	host string // host:port
	path string // URL path of the volume's blocks, ending in "/b/"
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func newClient(base string) *client {
	u, err := url.Parse(base)
	if err != nil {
		panic(err) // base is built by startServer
	}
	return &client{host: u.Host, path: u.Path}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br, c.bw = nil, nil, nil
	}
}

// do sends one block request; a read fills buf, a write sends it. A
// failed request closes the connection; the next one dials again.
func (c *client) do(write bool, block int64, buf []byte, req int64) error {
	err := c.roundTrip(write, block, buf, req)
	if err != nil {
		c.close()
	}
	return err
}

func (c *client) roundTrip(write bool, block int64, buf []byte, req int64) error {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.host)
		if err != nil {
			return err
		}
		c.conn, c.br, c.bw = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	}
	var body io.Reader
	method, want := http.MethodGet, http.StatusOK
	if write {
		method, want, body = http.MethodPut, http.StatusNoContent, bytes.NewReader(buf)
	}
	r, err := http.NewRequest(method, "http://"+c.host+c.path+strconv.FormatInt(block, 10), body)
	if err != nil {
		return err
	}
	if req >= 0 {
		r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	if err := r.Write(c.bw); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.br, r)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s block %d: status %d: %s", method, block, resp.StatusCode, msg)
	}
	if !write {
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return fmt.Errorf("GET block %d: %w", block, err)
		}
	}
	// Drain the body so the connection is ready for the next response.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.Close {
		c.close()
	}
	return nil
}

// volumeServer is an in-process serve.Server on a loopback listener, with
// one tenant (unlimited QoS) and one volume.
type volumeServer struct {
	vol  *serve.Volume
	base string // URL prefix of the volume's blocks, ending in "/b/"
	hs   *http.Server
	done chan struct{}
}

func startServer(io serve.BlockIO, blocks int64, tr *tracing) (*volumeServer, error) {
	srv := serve.NewServer(nil)
	tenant, err := srv.AddTenant("bench", serve.QoS{})
	if err != nil {
		return nil, err
	}
	vol, err := tenant.AddVolume("v0", io, blocks)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	s := &volumeServer{
		vol:  vol,
		base: fmt.Sprintf("http://%s/v1/t/bench/v/v0/b/", ln.Addr()),
		hs:   &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener and every connection, and waits for Serve to
// return.
func (s *volumeServer) stop() {
	s.hs.Close()
	<-s.done
}

// opLog records one load generator's requests: latencies in µs by kind,
// generator lateness, and failures.
type opLog struct {
	reads, writes []float64
	late          []float64
	attempted     int64
	failed        int64
	firstErr      error
}

func (l *opLog) record(write bool, us float64) {
	if write {
		l.writes = append(l.writes, us)
	} else {
		l.reads = append(l.reads, us)
	}
}

func (l *opLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// merge adds o's requests to l.
func (l *opLog) merge(o *opLog) {
	l.reads = append(l.reads, o.reads...)
	l.writes = append(l.writes, o.writes...)
	l.late = append(l.late, o.late...)
	l.attempted += o.attempted
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// op is one request an open-loop generator schedules.
type op struct {
	due   time.Time
	write bool
	block int64
	seq   uint64
}

// openLoop issues requests at Poisson arrival times at the given rate
// until stop is closed, over conns workers, each of which owns one
// connection. Latency is timed from each request's due time, so a stall
// charges the wait it imposes on later requests; lateness is how long
// after its due time the generator handed a request to a worker. The
// generator stops at the first due time after stop closes; requests handed
// over before then are still completed. dispatch, when set,
// runs before each hand-off (tests use it to stall the generator).
func openLoop(seed int64, rate float64, conns int, stop <-chan struct{}, next func(r *rand.Rand) (write bool, block int64),
	do func(conn int, o op) error, dispatch func(i int64)) *opLog {
	// The queue holds what the workers have not picked up yet; a second's
	// worth of requests bounds memory if the system under test stalls.
	queue := make(chan op, int(rate)+1)
	gen := &opLog{}
	logs := make([]*opLog, conns)
	var wg sync.WaitGroup
	for i := range logs {
		logs[i] = &opLog{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := logs[i]
			for o := range queue {
				l.attempted++
				if err := do(i, o); err != nil {
					l.fail(err)
					continue
				}
				l.record(o.write, micros(time.Since(o.due)))
			}
		}(i)
	}
	finish := func() *opLog {
		close(queue)
		wg.Wait()
		for _, l := range logs {
			gen.merge(l)
		}
		return gen
	}
	timer, err := newDueTimer()
	if err != nil {
		gen.attempted++
		gen.fail(err)
		return finish()
	}
	defer timer.close()
	r := rand.New(rand.NewSource(seed))
	due := time.Now()
	for i := int64(0); ; i++ {
		due = due.Add(time.Duration(r.ExpFloat64() / rate * float64(time.Second)))
		write, block := next(r)
		if d := time.Until(due); d > 0 {
			if err := timer.sleep(d); err != nil {
				gen.attempted++
				gen.fail(err)
				return finish()
			}
		}
		select {
		case <-stop:
			return finish()
		default:
		}
		if dispatch != nil {
			dispatch(i)
		}
		gen.late = append(gen.late, micros(time.Since(due)))
		queue <- op{due: due, write: write, block: block, seq: uint64(i)}
	}
}
