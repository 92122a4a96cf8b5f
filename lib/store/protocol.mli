(** Wire protocol of the replicated store: version/value queries (the
    read phase of both logical reads and writes), versioned installs
    (the write phase), and batch frames carrying several of either in
    one message. *)

type msg =
  | Query_req of { rid : int; key : string; ctx : Obs.Ctx.t option }
  | Query_rep of { rid : int; key : string; vn : int; value : int }
  | Install_req of {
      rid : int;
      key : string;
      vn : int;
      value : int;
      ctx : Obs.Ctx.t option;
    }
  | Install_ack of { rid : int; key : string }
  | Batch_req of { rid : int; reqs : msg list }
      (** several requests for one replica in one wire message; the
          frame rid identifies the batch, each wrapped request keeps
          its own rid — and its own causal [ctx], so a coalesced frame
          carries one context per wrapped operation *)
  | Batch_rep of { rid : int; reps : msg list }
      (** the replica's answers to a [Batch_req], echoing its rid *)
  | Txn_prepare of {
      rid : int;
      txid : Qc_util.Txid.t;
      writes : (string * int) list;  (** this shard's write set *)
      reads : string list;  (** this shard's read-only footprint *)
      acceptors : string list;
          (** every replica of every participant shard, in canonical
              order — the decision register's acceptor set, carried so
              a prepared replica can run recovery on its own *)
      paxos : bool;  (** Paxos-Commit mode: arm the recovery timer *)
    }
      (** phase 1 of commit: vote-request carrying the shard's
          footprint; a yes-vote locks the keys and snapshots their
          versions *)
  | Txn_vote of {
      rid : int;
      txid : Qc_util.Txid.t;
      yes : bool;
      kvs : (string * int * int) list;
          (** current (key, vn, value) per footprint key — the version
              query folded into the prepare round *)
    }
  | Txn_p1a of { rid : int; txid : Qc_util.Txid.t; bal : int }
      (** Paxos phase 1a on the transaction's decision register (sent
          by a recovery leader at ballot > 0) *)
  | Txn_p1b of {
      rid : int;
      txid : Qc_util.Txid.t;
      bal : int;
      ok : bool;
      accepted : (int * bool * (string * int * int) list) option;
          (** the acceptor's highest accepted (ballot, commit?, writes) *)
    }
  | Txn_p2a of {
      rid : int;
      txid : Qc_util.Txid.t;
      bal : int;
      commit : bool;
      writes : (string * int * int) list;  (** full write set, final vns *)
    }
      (** Paxos phase 2a: the coordinator proposes at ballot 0, a
          recovery leader at its own higher ballot *)
  | Txn_p2b of { rid : int; txid : Qc_util.Txid.t; bal : int; ok : bool }
  | Txn_decide of {
      rid : int;
      txid : Qc_util.Txid.t;
      decision : Register.decision;
          (** commit?, and the full write set at its final vns — one
              value per decision, shared by every frame that carries
              it and kept by every replica that learns it *)
    }
      (** the chosen (2PC: unilateral) decision — apply prepared
          writes, release locks *)
  | Txn_decide_ack of { rid : int; txid : Qc_util.Txid.t; applied : bool }
      (** [applied] — the replica held a prepared entry and resolved it
          (commit quorums count only applied acks) *)

val rid : msg -> int

val batching : msg Rpc.Engine.batching
(** The engine batching hooks for this protocol (see
    {!Rpc.Engine.set_batching}). *)
