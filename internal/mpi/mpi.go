// Package mpi is an in-process message-passing runtime with MPI
// semantics, standing in for the MPICH2 library the paper uses on Blue
// Gene/P. Ranks are goroutines inside one OS process; messages are
// copied through per-rank mailboxes with MPI's matching rules
// (source + tag, FIFO non-overtaking per (source, tag) pair).
//
// The surface mirrors the MPI subset GPAW's finite-difference engine
// needs: blocking and non-blocking point-to-point, request objects with
// Wait/Waitall/Test, communicator split, Cartesian topologies
// (MPI_Cart_create / MPI_Cart_shift), and the collectives used by the
// surrounding DFT code (Barrier, Bcast, Reduce, Allreduce, Allgather).
//
// Thread support levels follow MPI-2: SINGLE (only one thread may call
// into the library; violations are detected and panic, standing in for
// the undefined behaviour of a real MPI) and MULTIPLE (any thread may
// call at any time). The Blue Gene/P performance difference between the
// two modes is modelled in internal/bgpsim; here the distinction is a
// correctness contract.
//
// # Calibrated network model
//
// By default delivery is eager and free — correct, but timing-blind: a
// shared-memory run cannot show communication/computation overlap or
// rank-placement effects. World.SetNetModel layers a virtual-time cost
// model over the unchanged transport (see netmodel.go): every message
// pays sender post cost, serialized DMA injection, wire time at the
// effective link bandwidth and per-hop latency over the torus/mesh
// distance between the endpoints' node coordinates, with a cheap
// intra-node path and free self-sends. The constants (NetParams) are
// the internal/bgpsim Figure-2 fit — bgpsim.Params.NetParams converts,
// bgpsim.NetModelFor builds a ready model — and rank→node placement
// comes from internal/topology's mapping strategies. Virtual clocks
// advance without sleeping (RunModeled returns the makespan); NetModel.
// Paced turns the delays into real sleeps, which SetOpTimeout excludes
// from its deadlines. The model reorders time only, never data or
// matching, so results are bit-identical with the model on or off.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ThreadMode is the MPI-2 thread support level of a World.
type ThreadMode int

const (
	// ThreadSingle allows MPI calls from one thread per rank at a time.
	ThreadSingle ThreadMode = iota
	// ThreadMultiple allows fully concurrent MPI calls per rank.
	ThreadMultiple
)

// String implements fmt.Stringer.
func (m ThreadMode) String() string {
	if m == ThreadSingle {
		return "SINGLE"
	}
	return "MULTIPLE"
}

// AnySource matches messages from any sender in Recv/Irecv.
const AnySource = -1

// AnyTag matches messages with any tag in Recv/Irecv.
const AnyTag = -1

// envelope is a message in flight: an eager copy of the sender's data.
type envelope struct {
	src   int // sender's rank in the destination communicator
	tag   int
	data  []float64
	seq   uint64 // arrival order stamp, for deterministic matching
	epoch int    // fault-tolerance epoch the message belongs to
	// arriveAt is the modeled virtual arrival time under the network
	// model (see netmodel.go); 0 when no model is armed or the message
	// is a free self-send.
	arriveAt int64
	// fail is non-nil for a poisoned delivery from the chaos reliability
	// sublayer (see chaos.go): the matching receive completes with this
	// typed error instead of a payload.
	fail error
}

// mailbox holds a rank's unmatched arrived messages and posted
// receives. Posted receives are the Request objects themselves (their
// prSrc/prTag/buf matching fields are guarded by the mailbox lock), so
// posting a receive costs no extra allocation.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	arrived []*envelope
	posted  []*Request
	seq     uint64
	aborted bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// World is a set of ranks that can exchange messages. It corresponds to
// MPI_COMM_WORLD plus the process runtime.
type World struct {
	size  int
	mode  ThreadMode
	boxes []*mailbox

	reqMu   sync.Mutex
	pending map[*Request]struct{}
	reqFree []*Request // completed requests handed back by Reclaim
	aborted bool

	// Fault-tolerance state (see fault.go). ftOn gates every hot-path
	// check behind one atomic load, so worlds that never arm faults pay
	// nothing beyond it.
	ftOn         atomic.Bool
	plan         *FaultPlan
	killAt       []int64 // per-rank op-count kill threshold, -1 = never
	ops          []int64 // per-rank op counters, guarded by deadMu
	deadMu       sync.Mutex
	dead         []bool
	deadList     []int        // world ranks in death order
	epoch        atomic.Int64 // current epoch, advanced by Shrink
	revokedEpoch atomic.Int64 // highest poisoned epoch (-1: none)
	opTimeout    atomic.Int64 // blocking-wait timeout in ns (0: off)

	agreeMu     sync.Mutex
	agreeCond   *sync.Cond
	agreeRounds map[agreeKey]*agreeRound

	// Network-model state (see netmodel.go). netOn gates every hot-path
	// check behind one atomic load, like ftOn: worlds that never arm the
	// model pay nothing beyond it.
	netOn   atomic.Bool
	net     *NetModel
	clocks  []rankClock
	netBase time.Time
	// pacedNs is the world-wide total of wall time slept to pace modeled
	// delay and pacing the number of ranks currently inside such a
	// sleep; blocking-wait timeouts exclude both the completed total and
	// any sleep still in flight (see Request.Wait), so SetOpTimeout
	// counts only genuine wall time, never modeled delivery delay.
	pacedNs atomic.Int64
	pacing  atomic.Int32

	// Tracing state (see trace.go and internal/trace). trcOn gates every
	// emission site behind one atomic load, exactly like ftOn and netOn:
	// worlds that never arm a tracer pay nothing beyond it.
	trcOn  atomic.Bool
	tracer *trace.Tracer

	// Chaos-transport state (see chaos.go). chaosOn gates the lossy
	// delivery path behind one atomic load, like ftOn/netOn/trcOn:
	// worlds that never arm message faults pay nothing beyond it.
	chaosOn atomic.Bool
	chaos   *chaosState
}

// NewWorld creates a world of n ranks with the given thread mode.
func NewWorld(n int, mode ThreadMode) *World {
	if n < 1 {
		panic(fmt.Sprintf("mpi: world of %d ranks", n))
	}
	w := &World{size: n, mode: mode, pending: make(map[*Request]struct{})}
	w.boxes = make([]*mailbox, n)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.revokedEpoch.Store(-1)
	w.agreeCond = sync.NewCond(&w.agreeMu)
	return w
}

// track registers a live receive request so a world abort can unblock
// its waiter.
func (w *World) track(r *Request) {
	w.reqMu.Lock()
	aborted := w.aborted
	w.pending[r] = struct{}{}
	w.reqMu.Unlock()
	if aborted {
		r.completeErr(AnySource, AnyTag, 0, errAborted)
	}
}

// untrack removes a completed request.
func (w *World) untrack(r *Request) {
	w.reqMu.Lock()
	delete(w.pending, r)
	w.reqMu.Unlock()
}

// errAborted is delivered to every blocked request when a rank panics,
// so the remaining ranks unwind instead of deadlocking.
var errAborted = fmt.Errorf("mpi: world aborted after a rank failure")

// abort completes every pending request with an error and wakes all
// mailbox waiters. Called once when any rank panics.
func (w *World) abort() {
	w.reqMu.Lock()
	w.aborted = true
	reqs := make([]*Request, 0, len(w.pending))
	for r := range w.pending {
		reqs = append(reqs, r)
	}
	w.pending = make(map[*Request]struct{})
	w.reqMu.Unlock()
	for _, r := range reqs {
		r.completeErr(AnySource, AnyTag, 0, errAborted)
	}
	for _, b := range w.boxes {
		b.mu.Lock()
		b.aborted = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Mode returns the world's thread support level.
func (w *World) Mode() ThreadMode { return w.mode }

// Comm is a communicator: a view of a subset of world ranks with its own
// rank numbering. The zero value is not usable.
type Comm struct {
	world *World
	rank  int   // rank within this communicator
	group []int // communicator rank -> world rank

	active *int32 // concurrent-call detector shared per (world rank)
	coll   uint64 // per-rank collective sequence number (local, no lock)

	// ctx is the communicator's context id, the analogue of an MPI
	// context: collective tags fold it in so collectives on different
	// communicators sharing ranks (a domain communicator and a band
	// communicator, a process grid and its row/column sub-communicators)
	// can never cross-match, even when a fast rank races ahead into a
	// sibling communicator's collectives. The world communicator has
	// ctx 0; Split derives children's contexts deterministically, so
	// every member of a communicator agrees on its ctx without extra
	// communication.
	ctx uint64
	// splits counts Split calls on this communicator. MPI requires all
	// ranks of a communicator to call Split collectively in the same
	// order, so the local counter agrees across ranks and feeds the
	// deterministic child-context derivation.
	splits uint64

	// epoch is the fault-tolerance epoch the communicator belongs to.
	// The initial world and everything Split from it live in epoch 0; a
	// rank death revokes the current epoch (all its operations fail
	// fast) and Shrink starts the next. Requests and envelopes carry
	// their communicator's epoch, and matching requires equal epochs.
	epoch int
	// agreeSeq counts Agree calls, like coll for collectives: all ranks
	// call Agree in the same order, so the local counters line up.
	agreeSeq uint64

	// redTmp, redWire and redRecv are allreduce's reusable scratch: the
	// partner vector and the packed send and receive buffers (see
	// reduceScratch).
	redTmp, redWire, redRecv []float64
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// World returns the underlying world.
func (c *Comm) World() *World { return c.world }

// enter/exit implement the SINGLE-mode misuse detector and, once the
// fault machinery is armed, the per-operation fault hook (poisoned-
// epoch fail-fast, injected jitter, scheduled kills).
func (c *Comm) enter() {
	if c.world.netOn.Load() {
		// Accrue the wall time the rank spent computing since its last
		// MPI call before any fault jitter sleeps, so injected delay is
		// never mistaken for compute.
		c.world.netEnter(c.group[c.rank])
	}
	if c.world.ftOn.Load() {
		c.faultPoint()
	}
	if c.world.mode == ThreadSingle {
		if n := atomic.AddInt32(c.active, 1); n > 1 {
			panic("mpi: concurrent MPI calls from multiple threads in SINGLE mode")
		}
	}
}

func (c *Comm) exit() {
	if c.world.mode == ThreadSingle {
		atomic.AddInt32(c.active, -1)
	}
	if c.world.netOn.Load() {
		c.world.netExit(c.group[c.rank])
	}
}

// Run spawns n goroutine ranks executing body and waits for all of them.
// A panic in any rank is recovered and returned as an error (first one
// wins); remaining ranks may deadlock-free finish or be abandoned — the
// world must not be reused after an error.
func Run(n int, mode ThreadMode, body func(c *Comm)) error {
	return RunWithFaults(n, mode, nil, body)
}

// RunWithFaults is Run with a fault-injection plan armed (nil behaves
// exactly like Run). A rank killed by the plan — or by Comm.Fail —
// exits quietly rather than failing the world: surviving ranks observe
// the death as *ErrRankFailed panics and decide for themselves whether
// to recover (Agree/Shrink) or unwind; only an unrecovered panic
// reaching Run is reported as the returned error.
func RunWithFaults(n int, mode ThreadMode, plan *FaultPlan, body func(c *Comm)) error {
	w := NewWorld(n, mode)
	if plan != nil {
		w.installPlan(plan)
	}
	return w.runRanks(body)
}

// runRanks spawns one goroutine per rank of the (possibly pre-armed)
// world and waits for all of them — the engine behind Run, RunWithFaults
// and RunModeled.
func (w *World) runRanks(body func(c *Comm)) error {
	n := w.size
	var wg sync.WaitGroup
	var firstErr atomic.Value
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(rankKilled); ok {
						// Injected death: the rank just exits.
						return
					}
					if w.isDead(r) {
						// Death throes of an already-killed rank (e.g. a
						// worker thread unwinding with the failure error).
						return
					}
					firstErr.CompareAndSwap(nil, fmt.Errorf("mpi: rank %d panicked: %v", r, p))
					// Unblock every other rank so the process can unwind.
					w.abort()
				}
			}()
			var active int32
			c := &Comm{world: w, rank: r, group: group, active: &active}
			body(c)
		}()
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// worldRank maps a communicator rank to the world rank.
func (c *Comm) worldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.group) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", commRank, len(c.group)))
	}
	return c.group[commRank]
}

// Send delivers an eager copy of data to rank `to` with the given tag.
// It corresponds to a buffered MPI_Send and never blocks.
//
//gpaw:hotpath
func (c *Comm) Send(to, tag int, data []float64) {
	c.enter()
	defer c.exit()
	c.send(to, tag, data)
}

//gpaw:hotpath
func (c *Comm) send(to, tag int, data []float64) {
	if tag < 0 {
		//lint:ignore hotpathalloc panic path: formatting the message as we die is fine
		panic(fmt.Sprintf("mpi: negative user tag %d", tag))
	}
	c.sendInternal(to, tag, data)
}

// sendInternal is send without the tag-sign restriction; collectives use
// negative tags so they can never collide with user point-to-point
// traffic. When tracing is armed it records one send span per message
// (virtual duration = the modeled post cost).
//
//gpaw:hotpath
func (c *Comm) sendInternal(to, tag int, data []float64) {
	if rk := c.traceRank(); rk != nil {
		defer rk.BeginComm("mpi.send", trace.KindSend, c.worldRank(to), tag, int64(len(data))*8).End()
	}
	c.sendDeliver(to, tag, data)
}

// sendDeliver performs the untraced eager delivery.
//
//gpaw:hotpath
func (c *Comm) sendDeliver(to, tag int, data []float64) {
	toW := c.worldRank(to)
	if c.world.ftOn.Load() {
		c.world.checkPeer(c.epoch, toW)
	}
	// Modeled delivery cost: charge the sender's CPU and injection path
	// and stamp the virtual arrival time before the physical (eager)
	// delivery below, which is unchanged by the model.
	var arriveAt int64
	if c.world.netOn.Load() {
		arriveAt = c.world.sendCost(c.group[c.rank], toW, len(data))
	}
	if c.world.chaosOn.Load() {
		// Lossy transport armed: route through the chaos layer's framed,
		// sequenced, retransmitting delivery path (see chaos.go).
		c.chaosSend(toW, tag, data, arriveAt)
		return
	}
	box := c.world.boxes[toW]
	box.mu.Lock()
	defer box.mu.Unlock()
	box.seq++
	// Try to match a posted receive first, in post order. The match
	// delivers straight from the sender's buffer into the posted one —
	// no envelope, no intermediate copy, no allocation — which makes the
	// split-phase exchange loops (receives posted up front, sends
	// following) allocation-free in steady state. Epochs must agree so a
	// pre-failure send can never complete a post-recovery receive.
	for i, pr := range box.posted {
		if pr == nil || pr.epoch != c.epoch {
			continue
		}
		if (pr.prSrc == AnySource || pr.prSrc == c.rank) && (pr.prTag == AnyTag || pr.prTag == tag) {
			box.posted[i] = nil
			completeRecv(pr, c.rank, tag, data, arriveAt)
			c.world.untrack(pr)
			box.cond.Broadcast()
			return
		}
	}
	//lint:ignore hotpathalloc unmatched-send fallback: the guarded split-phase loops pre-post every receive, so steady state always takes the posted-match path above
	env := &envelope{src: c.rank, tag: tag, data: append([]float64(nil), data...), seq: box.seq, epoch: c.epoch, arriveAt: arriveAt}
	//lint:ignore hotpathalloc same cold fallback as the envelope above
	box.arrived = append(box.arrived, env)
	box.cond.Broadcast()
}

// completeRecv copies the message payload into the posted buffer and
// completes the request. Caller holds the mailbox lock. A message larger
// than the posted buffer is a truncation error, surfaced as a panic at
// the receiver's Wait (never in the sender's goroutine, which may be a
// different rank). The copy happens under the request lock after the
// done check, so a request already completed by a failure revocation
// can never have its abandoned buffer written.
func completeRecv(pr *Request, src, tag int, data []float64, arriveAt int64) {
	pr.mu.Lock()
	if pr.done {
		pr.mu.Unlock()
		return
	}
	n := copy(pr.buf, data)
	var err error
	if len(data) > len(pr.buf) {
		err = fmt.Errorf("mpi: message of %d values truncated into buffer of %d", len(data), len(pr.buf))
	}
	pr.done = true
	pr.src, pr.tag, pr.n = src, tag, n
	pr.arriveAt = arriveAt
	pr.err = err
	pr.mu.Unlock()
	pr.cond.Broadcast()
}

// Recv blocks until a message matching (from, tag) arrives, copies it
// into buf, and returns the source rank, tag and value count. from may be
// AnySource and tag may be AnyTag.
func (c *Comm) Recv(from, tag int, buf []float64) (src, gotTag, n int) {
	c.enter()
	defer c.exit()
	req := c.irecv(from, tag, buf)
	return req.Wait()
}

// Isend initiates a non-blocking send and returns its request. With the
// eager-copy transport the request is already complete; the object exists
// so protocol code can be written exactly as with a real MPI.
//
//gpaw:hotpath
func (c *Comm) Isend(to, tag int, data []float64) *Request {
	c.enter()
	defer c.exit()
	c.send(to, tag, data)
	r := c.world.getRequest()
	r.owner = c.group[c.rank]
	r.complete(c.rank, tag, len(data))
	return r
}

// Irecv posts a non-blocking receive into buf and returns its request.
//
//gpaw:hotpath
func (c *Comm) Irecv(from, tag int, buf []float64) *Request {
	c.enter()
	defer c.exit()
	return c.irecv(from, tag, buf)
}

//gpaw:hotpath
func (c *Comm) irecv(from, tag int, buf []float64) *Request {
	ft := c.world.ftOn.Load()
	if c.world.netOn.Load() {
		c.world.chargePost(c.group[c.rank])
	}
	box := c.world.boxes[c.worldRank(c.rank)]
	req := c.world.getRequest()
	req.prSrc, req.prTag, req.buf = from, tag, buf
	req.owner = c.group[c.rank]
	req.epoch = c.epoch
	box.mu.Lock()
	// Match the earliest arrived envelope (FIFO per source/tag is
	// guaranteed because arrived is scanned in arrival order). Epochs
	// must agree: a message stranded by a failed epoch is never
	// delivered into a recovered one.
	for i, env := range box.arrived {
		if env == nil || env.epoch != c.epoch {
			continue
		}
		if (from == AnySource || from == env.src) && (tag == AnyTag || tag == env.tag) {
			//lint:ignore hotpathalloc in-place removal from the arrived list — never grows the backing array
			box.arrived = append(box.arrived[:i], box.arrived[i+1:]...)
			box.mu.Unlock()
			if env.fail != nil {
				// Poisoned delivery from the chaos reliability sublayer:
				// the receive completes with the typed error.
				req.completeErr(env.src, env.tag, 0, env.fail)
				return req
			}
			completeRecv(req, env.src, env.tag, env.data, env.arriveAt)
			return req
		}
	}
	//lint:ignore hotpathalloc posted-receive list of the warm mailbox; capacity is stable once the exchange pattern repeats
	box.posted = append(box.posted, req)
	idx := len(box.posted) - 1
	c.world.track(req)
	// Fault checks must come after the request is tracked: a revocation
	// that raced ahead of the post has already swept the pending set, so
	// re-checking here guarantees the request can never be stranded.
	var failErr error
	var deadPeer = -1
	if ft {
		if int64(c.epoch) <= c.world.revokedEpoch.Load() {
			failErr = c.world.failure()
		} else if from != AnySource && from >= 0 && from < len(c.group) {
			if fw := c.group[from]; c.world.isDead(fw) {
				//lint:ignore hotpathalloc fault path: a receive posted to a dead peer allocates its error, never the healthy steady state
				failErr = &ErrRankFailed{Rank: fw}
				deadPeer = fw
			}
		}
		if failErr != nil {
			box.posted[idx] = nil
		}
	}
	// Garbage-collect matched slots occasionally to bound growth.
	if len(box.posted) > 64 {
		live := box.posted[:0]
		for _, p := range box.posted {
			if p != nil {
				//lint:ignore hotpathalloc in-place compaction into posted[:0] — never grows the backing array
				live = append(live, p)
			}
		}
		box.posted = live
	}
	box.mu.Unlock()
	if failErr != nil {
		c.world.untrack(req)
		if deadPeer >= 0 {
			c.world.revoke(int64(c.epoch), deadPeer)
		}
		req.completeErr(AnySource, AnyTag, 0, failErr)
	}
	return req
}

// Sendrecv sends one buffer and receives another in a single, deadlock-
// free operation (MPI_Sendrecv).
func (c *Comm) Sendrecv(to, sendTag int, sendBuf []float64, from, recvTag int, recvBuf []float64) (n int) {
	c.enter()
	defer c.exit()
	req := c.irecv(from, recvTag, recvBuf)
	c.send(to, sendTag, sendBuf)
	_, _, n = req.Wait()
	return n
}

// Probe blocks until a matching message is available without receiving
// it, returning its source, tag, and length.
func (c *Comm) Probe(from, tag int) (src, gotTag, n int) {
	c.enter()
	defer c.exit()
	box := c.world.boxes[c.worldRank(c.rank)]
	var arriveAt int64
	box.mu.Lock()
probe:
	for {
		if box.aborted {
			box.mu.Unlock()
			panic(errAborted)
		}
		if c.world.ftOn.Load() {
			if me := c.group[c.rank]; c.world.isDead(me) {
				box.mu.Unlock()
				panic(rankKilled{me})
			}
			if int64(c.epoch) <= c.world.revokedEpoch.Load() {
				box.mu.Unlock()
				panic(c.world.failure())
			}
		}
		for _, env := range box.arrived {
			if env == nil || env.epoch != c.epoch {
				continue
			}
			if (from == AnySource || from == env.src) && (tag == AnyTag || tag == env.tag) {
				if env.fail != nil {
					box.mu.Unlock()
					panic(env.fail)
				}
				src, gotTag, n = env.src, env.tag, len(env.data)
				arriveAt = env.arriveAt
				break probe
			}
		}
		box.cond.Wait()
	}
	box.mu.Unlock()
	// A probe observes the message, so the observer's clock advances to
	// its modeled arrival — outside the mailbox lock, because paced mode
	// sleeps the jump.
	if c.world.netOn.Load() {
		c.world.advanceTo(c.group[c.rank], arriveAt)
	}
	return src, gotTag, n
}
