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
      txid : string;
      writes : (string * int) list;  (** this shard's write set *)
      reads : string list;  (** this shard's read-only footprint *)
      acceptors : string list;
          (** every replica of every participant shard, in canonical
              order — the decision register's acceptor set, carried so
              a prepared replica can run recovery on its own *)
      paxos : bool;  (** Paxos-Commit mode: arm the recovery timer *)
      ctx : Obs.Ctx.t option;
    }
      (** phase 1 of commit: vote-request carrying the shard's
          footprint; a yes-vote locks the keys and snapshots their
          versions *)
  | Txn_vote of {
      rid : int;
      txid : string;
      yes : bool;
      kvs : (string * int * int) list;
          (** current (key, vn, value) per footprint key — the version
              query folded into the prepare round *)
    }
  | Txn_p1a of { rid : int; txid : string; bal : int }
      (** Paxos phase 1a on the transaction's decision register (sent
          by a recovery leader at ballot > 0) *)
  | Txn_p1b of {
      rid : int;
      txid : string;
      bal : int;
      ok : bool;
      accepted : (int * bool * (string * int * int) list) option;
          (** the acceptor's highest accepted (ballot, commit?, writes) *)
    }
  | Txn_p2a of {
      rid : int;
      txid : string;
      bal : int;
      commit : bool;
      writes : (string * int * int) list;  (** full write set, final vns *)
      ctx : Obs.Ctx.t option;
    }
      (** Paxos phase 2a: the coordinator proposes at ballot 0, a
          recovery leader at its own higher ballot *)
  | Txn_p2b of { rid : int; txid : string; bal : int; ok : bool }
  | Txn_decide of {
      rid : int;
      txid : string;
      commit : bool;
      writes : (string * int * int) list;  (** full write set, final vns *)
      ctx : Obs.Ctx.t option;
    }
      (** the chosen (2PC: unilateral) decision — apply prepared
          writes, release locks *)
  | Txn_decide_ack of { rid : int; txid : string; applied : bool }
      (** [applied] — the replica held a prepared entry and resolved it
          (commit quorums count only applied acks) *)

val rid : msg -> int

val ctx : msg -> Obs.Ctx.t option
(** The causal stamp carried by a request frame, if any.  Replies and
    batch frames carry none of their own (each request wrapped in a
    batch keeps its own). *)

val batching : window:float -> msg Rpc.Engine.batching
(** The engine batching hooks for this protocol (see
    {!Rpc.Engine.set_batching}). *)
