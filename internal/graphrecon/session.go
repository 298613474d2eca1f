package graphrecon

import (
	"fmt"

	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/transport"
)

// Scheme selects a §5 graph protocol.
type Scheme uint8

// The §5 schemes.
const (
	// SchemeDegreeOrdering is §5.1 (Theorem 5.2).
	SchemeDegreeOrdering Scheme = iota
	// SchemeNeighborhood is §5.2 (Theorem 5.6).
	SchemeNeighborhood
)

// Plan is a resolved graph session; both halves must hold the same Plan.
type Plan struct {
	Scheme Scheme
	// D bounds the edge edits between the two graphs.
	D int
	// H is the number of top-degree anchors (degree ordering).
	H int
	// M is the degree threshold, SigBudget the signature budget (0 derives
	// it) and MaxSig the larger party's largest packed signature
	// (neighborhood).
	M, SigBudget, MaxSig int
}

func (pl Plan) degreeOrder() DegreeOrderParams { return DegreeOrderParams{H: pl.H, D: pl.D} }

func (pl Plan) neighborhood() NeighborhoodParams {
	return NeighborhoodParams{M: pl.M, D: pl.D, SigBudget: pl.SigBudget}
}

// AliceMsgs builds Alice's one-round payloads for the plan. side is her
// NeighborhoodEncode output for the neighborhood scheme.
func (pl Plan) AliceMsgs(coins hashing.Coins, ga *graph.Graph, side *NbrSide) (*GraphMsgs, error) {
	if pl.Scheme == SchemeNeighborhood {
		return NeighborhoodAlice(coins, ga, pl.neighborhood(), side, pl.MaxSig)
	}
	return DegreeOrderAlice(coins, ga, pl.degreeOrder())
}

// Alice runs Alice's half of a graph session: the cascaded signature tables
// and the labeled-edge IBLT travel together (one round). It returns the
// payload of Bob's closing transport.LabelDone.
func Alice(peer transport.Peer, msgs *GraphMsgs) ([]byte, error) {
	err := peer.SendFrame("cascade-iblts", msgs.Sig)
	if err == nil {
		err = peer.SendFrame("edge-iblt", msgs.Edges)
	}
	if err == nil {
		err = transport.AwaitDone(peer)
	}
	return transport.AliceResult(err)
}

// Bob runs Bob's half of a graph session and returns his copy of Alice's
// graph under Alice's labeling; Stats live with the caller's link. side is
// his NeighborhoodEncode output for the neighborhood scheme. A failed decode
// is a *transport.FailedError. The caller then closes the session with
// transport.LabelDone.
func Bob(peer transport.Peer, coins hashing.Coins, gb *graph.Graph, side *NbrSide, pl Plan) (*graph.Graph, error) {
	sig, err := transport.Expect(peer, "cascade-iblts")
	if err != nil {
		return nil, err
	}
	edges, err := transport.Expect(peer, "edge-iblt")
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	if pl.Scheme == SchemeNeighborhood {
		g, err = NeighborhoodApply(coins, gb, pl.neighborhood(), side, pl.MaxSig, sig, edges)
	} else {
		g, err = DegreeOrderApply(coins, gb, pl.degreeOrder(), sig, edges)
	}
	if err != nil {
		return nil, transport.Failed(err)
	}
	return g, nil
}

// Reconcile runs a whole graph session in process: both halves over a pair
// on ch, Bob ending with Alice's graph under her labeling. For the
// neighborhood scheme it encodes each side once and sets MaxSig from both,
// as a network session negotiates it in its handshake.
//
// Preconditions (Theorems 5.2 and 5.6): the base graph is (h, d+1,
// 2d+1)-separated, or its degree neighborhoods are disjoint enough, and at
// most D edge changes separate ga and gb.
func Reconcile(ch transport.Channel, coins hashing.Coins, ga, gb *graph.Graph, pl Plan) (*graph.Graph, transport.Stats, error) {
	if ga.N != gb.N {
		return nil, transport.Stats{}, fmt.Errorf("graphrecon: vertex count mismatch")
	}
	var sideA, sideB *NbrSide
	if pl.Scheme == SchemeNeighborhood {
		var err error
		if sideA, err = NeighborhoodEncode(ga, pl.M); err != nil {
			return nil, transport.Stats{}, err
		}
		if sideB, err = NeighborhoodEncode(gb, pl.M); err != nil {
			return nil, transport.Stats{}, err
		}
		pl.MaxSig = max(sideA.MaxSig, sideB.MaxSig)
	}
	msgs, err := pl.AliceMsgs(coins, ga, sideA)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	rec, err := transport.RunPair(ch,
		func(peer transport.Peer) error {
			_, err := Alice(peer, msgs)
			return err
		},
		func(peer transport.Peer) (*graph.Graph, error) { return Bob(peer, coins, gb, sideB, pl) })
	if err != nil {
		return nil, transport.Stats{}, err
	}
	return rec, ch.Stats(), nil
}
