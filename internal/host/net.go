package host

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/rpcx"
)

// RPC identity of the built-in echo service.
const (
	rpcProg  = 0x20000199
	rpcVers  = 1
	procEcho = 1
)

// netOps implements core.NetOps over loopback sockets and pipes. All
// servers and connections are created lazily on first use and reused,
// so measured loops see steady-state costs. Each client end joins the
// binding when it is opened; server ends only go on the close list.
type netOps struct {
	mu   sync.Mutex
	bind *binding

	// Pipe bandwidth: the writer end; a goroutine drains the reader.
	bwPipeW *os.File

	// Pipe latency: a pair of pipes with an echo goroutine.
	latPipeAW *os.File // us -> peer
	latPipeBR *os.File // peer -> us

	// TCP sink (bandwidth) and echo (latency) connections.
	sinkC    net.Conn
	echoC    net.Conn
	connAddr string   // connect benchmark target
	udpC     net.Conn // UDP echo client side
	rpcTCP   *rpcx.Client
	rpcUDP   *rpcx.Client
	buf      []byte
	ackBuf   [1]byte
	wordBuf  [4]byte

	closers []io.Closer
}

// prepare runs an ensure function under the lock, then checks the
// bound context. Ends take the bound deadline when they are opened, so
// the hot path adds only one atomic context check — no per-operation
// deadline syscalls that would perturb measurements.
func (no *netOps) prepare(ensure func() error) error {
	no.mu.Lock()
	defer no.mu.Unlock()
	if err := ensure(); err != nil {
		return err
	}
	return no.bind.context().Err()
}

var _ core.NetOps = (*netOps)(nil)

func newNetOps(b *binding) *netOps {
	return &netOps{bind: b, buf: make([]byte, 1<<20)}
}

func (no *netOps) close() error {
	no.mu.Lock()
	defer no.mu.Unlock()
	for _, c := range no.closers {
		_ = c.Close()
	}
	no.closers = nil
	return nil
}

func (no *netOps) track(c io.Closer) { no.closers = append(no.closers, c) }

// open puts client ends on the close list and joins them to the
// binding.
func (no *netOps) open(ends ...clientEnd) {
	for _, c := range ends {
		no.track(c)
		no.bind.join(c)
	}
}

// listen starts a loopback TCP server that hands every accepted
// connection to serve on its own goroutine and closes it when serve
// returns. The listener goes on the close list.
func (no *netOps) listen(serve func(net.Conn)) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	no.track(ln)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = c.Close() }()
				serve(c)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// dial opens a client connection to addr; like every client end, it
// joins the binding.
func (no *netOps) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	no.open(c)
	return c, nil
}

// ensureBWPipe sets up the pipe + drain goroutine.
func (no *netOps) ensureBWPipe() error {
	if no.bwPipeW != nil {
		return nil
	}
	r, w, err := os.Pipe()
	if err != nil {
		return err
	}
	no.track(r)
	no.open(w)
	no.bwPipeW = w
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := r.Read(buf); err != nil {
				return
			}
		}
	}()
	return nil
}

// PipeTransfer writes n bytes into the drained pipe in 64K chunks (the
// paper's pipe-bandwidth transfer unit).
func (no *netOps) PipeTransfer(n int64) error {
	if n <= 0 {
		return fmt.Errorf("host: pipe transfer needs positive size")
	}
	if err := no.prepare(no.ensureBWPipe); err != nil {
		return err
	}
	chunk := no.buf[:64<<10]
	for off := int64(0); off < n; off += int64(len(chunk)) {
		c := chunk
		if rem := n - off; rem < int64(len(c)) {
			c = c[:rem]
		}
		if _, err := no.bwPipeW.Write(c); err != nil {
			return err
		}
	}
	return nil
}

func (no *netOps) ensureLatPipes() error {
	if no.latPipeAW != nil {
		return nil
	}
	ar, aw, err := os.Pipe()
	if err != nil {
		return err
	}
	br, bw, err := os.Pipe()
	if err != nil {
		_ = ar.Close()
		_ = aw.Close()
		return err
	}
	no.track(ar)
	no.track(bw)
	no.open(aw, br)
	no.latPipeAW, no.latPipeBR = aw, br
	go func() {
		var b [1]byte
		for {
			if _, err := ar.Read(b[:]); err != nil {
				return
			}
			if _, err := bw.Write(b[:]); err != nil {
				return
			}
		}
	}()
	return nil
}

// PipeRoundTrip is Table 11: a word to the peer and back.
func (no *netOps) PipeRoundTrip() error {
	if err := no.prepare(no.ensureLatPipes); err != nil {
		return err
	}
	var b [1]byte
	if _, err := no.latPipeAW.Write(b[:]); err != nil {
		return err
	}
	_, err := no.latPipeBR.Read(b[:])
	return err
}

// ensureSink starts the TCP bandwidth sink: 8-byte length header, the
// payload, then a 1-byte ack.
func (no *netOps) ensureSink() error {
	if no.sinkC != nil {
		return nil
	}
	addr, err := no.listen(func(c net.Conn) {
		var hdr [8]byte
		for {
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			n := int64(binary.BigEndian.Uint64(hdr[:]))
			if _, err := io.CopyN(io.Discard, c, n); err != nil {
				return
			}
			if _, err := c.Write(hdr[:1]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	no.sinkC, err = no.dial("tcp", addr)
	return err
}

// TCPTransfer is Table 3's loopback TCP transfer.
func (no *netOps) TCPTransfer(n int64) error {
	if n <= 0 {
		return fmt.Errorf("host: tcp transfer needs positive size")
	}
	if err := no.prepare(no.ensureSink); err != nil {
		return err
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(n))
	if _, err := no.sinkC.Write(hdr[:]); err != nil {
		return err
	}
	for off := int64(0); off < n; off += int64(len(no.buf)) {
		c := no.buf
		if rem := n - off; rem < int64(len(c)) {
			c = c[:rem]
		}
		if _, err := no.sinkC.Write(c); err != nil {
			return err
		}
	}
	_, err := io.ReadFull(no.sinkC, no.ackBuf[:])
	return err
}

func (no *netOps) ensureEcho() error {
	if no.echoC != nil {
		return nil
	}
	addr, err := no.listen(func(c net.Conn) {
		var b [4]byte
		for {
			if _, err := io.ReadFull(c, b[:]); err != nil {
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	c, err := no.dial("tcp", addr)
	if err != nil {
		return err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	no.echoC = c
	return nil
}

// TCPRoundTrip is Table 12: exchange a word over loopback TCP.
func (no *netOps) TCPRoundTrip() error {
	if err := no.prepare(no.ensureEcho); err != nil {
		return err
	}
	if _, err := no.echoC.Write(no.wordBuf[:]); err != nil {
		return err
	}
	_, err := io.ReadFull(no.echoC, no.wordBuf[:])
	return err
}

func (no *netOps) ensureUDP() error {
	if no.udpC != nil {
		return nil
	}
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	no.track(srv)
	go func() {
		buf := make([]byte, 64)
		for {
			n, addr, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			if _, err := srv.WriteTo(buf[:n], addr); err != nil {
				return
			}
		}
	}()
	no.udpC, err = no.dial("udp", srv.LocalAddr().String())
	return err
}

// UDPRoundTrip is Table 13: exchange a word over loopback UDP.
func (no *netOps) UDPRoundTrip() error {
	if err := no.prepare(no.ensureUDP); err != nil {
		return err
	}
	if _, err := no.udpC.Write(no.wordBuf[:]); err != nil {
		return err
	}
	_, err := no.udpC.Read(no.wordBuf[:])
	return err
}

func (no *netOps) ensureRPC() error {
	if no.rpcTCP != nil {
		return nil
	}
	srv := rpcx.NewServer(0)
	srv.Register(rpcProg, rpcVers, procEcho, func(args []byte) ([]byte, error) {
		return args, nil
	})
	lt, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lu, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		_ = lt.Close()
		return err
	}
	no.track(lt)
	no.track(lu)
	go func() { _ = srv.ServeTCP(lt) }()
	go func() { _ = srv.ServeUDP(lu) }()
	ct, err := rpcx.DialTCP(lt.Addr().String(), rpcProg, rpcVers)
	if err != nil {
		return err
	}
	cu, err := rpcx.DialUDP(lu.LocalAddr().String(), rpcProg, rpcVers)
	if err != nil {
		_ = ct.Close()
		return err
	}
	no.open(ct, cu)
	no.rpcTCP, no.rpcUDP = ct, cu
	return nil
}

// RPCTCPRoundTrip layers the word exchange through the RPC machinery
// (XDR framing, record marking), the paper's RPC/TCP row.
func (no *netOps) RPCTCPRoundTrip() error {
	if err := no.prepare(no.ensureRPC); err != nil {
		return err
	}
	_, err := no.rpcTCP.Call(procEcho, no.wordBuf[:])
	return err
}

// RPCUDPRoundTrip is the RPC/UDP row.
func (no *netOps) RPCUDPRoundTrip() error {
	if err := no.prepare(no.ensureRPC); err != nil {
		return err
	}
	_, err := no.rpcUDP.Call(procEcho, no.wordBuf[:])
	return err
}

func (no *netOps) ensureConnectTarget() error {
	if no.connAddr != "" {
		return nil
	}
	addr, err := no.listen(func(net.Conn) {})
	no.connAddr = addr
	return err
}

// TCPConnect is Table 15: connect and close ("The socket is closed
// after each connect").
func (no *netOps) TCPConnect() error {
	if err := no.prepare(no.ensureConnectTarget); err != nil {
		return err
	}
	var d net.Dialer
	c, err := d.DialContext(no.bind.context(), "tcp", no.connAddr)
	if err != nil {
		return err
	}
	return c.Close()
}

// RemoteTCPTransfer requires real network hardware the host backend
// does not manage.
func (no *netOps) RemoteTCPTransfer(medium string, n int64) error {
	return fmt.Errorf("host: remote medium %q: %w", medium, core.ErrUnsupported)
}

// RemoteRoundTrip requires real network hardware.
func (no *netOps) RemoteRoundTrip(medium string, udp bool) error {
	return fmt.Errorf("host: remote medium %q: %w", medium, core.ErrUnsupported)
}

// Media reports no remote media on the host backend.
func (no *netOps) Media() []string { return nil }
