(** Wire protocol of the replicated store: the two round-trip kinds of
    the paper's algorithm — version/value queries (the read phase of
    both logical reads and writes) and versioned installs (the write
    phase) — plus batch frames that carry several of either in one
    message (the engine's multi-key batching; the frame rid identifies
    the batch, the wrapped requests keep their own rids). *)

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
  | Batch_rep of { rid : int; reps : msg list }
  (* ---- cross-shard transactions (2PC / Paxos Commit) ---- *)
  | Txn_prepare of {
      rid : int;
      txid : Qc_util.Txid.t;
      writes : (string * int) list;  (** this shard's write set *)
      reads : string list;  (** this shard's read-only footprint *)
      acceptors : string list;
          (** every replica of every participant shard, in canonical
              order — the decision register's acceptor set, carried so
              a prepared replica can run recovery on its own *)
      paxos : bool;  (** arm the non-blocking recovery timer *)
    }
  | Txn_vote of {
      rid : int;
      txid : Qc_util.Txid.t;
      yes : bool;
      kvs : (string * int * int) list;
          (** the replica's current (key, vn, value) for each footprint
              key — the version query folded into the prepare round *)
    }
  | Txn_p1a of { rid : int; txid : Qc_util.Txid.t; bal : int }
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
  | Txn_p2b of { rid : int; txid : Qc_util.Txid.t; bal : int; ok : bool }
  | Txn_decide of {
      rid : int;
      txid : Qc_util.Txid.t;
      decision : Register.decision;
          (** commit?, and the full write set at its final vns — one
              value per decision, shared by every frame that carries
              it and kept by every replica that learns it *)
    }
  | Txn_decide_ack of { rid : int; txid : Qc_util.Txid.t; applied : bool }
(* A static contract: [Replica.serve] and [serve_parts] match this type
   under [@warning "@4@8"], so a wildcard arm (fragile match, warning 4)
   or a missing constructor (partial match, warning 8) fails the build —
   adding a frame without teaching the replica about it is a compile
   error, not a silent drop. *)

let rid = function
  | Query_req { rid; _ } | Query_rep { rid; _ } | Install_req { rid; _ }
  | Install_ack { rid; _ }
  | Batch_req { rid; _ }
  | Batch_rep { rid; _ }
  | Txn_prepare { rid; _ }
  | Txn_vote { rid; _ }
  | Txn_p1a { rid; _ }
  | Txn_p1b { rid; _ }
  | Txn_p2a { rid; _ }
  | Txn_p2b { rid; _ }
  | Txn_decide { rid; _ }
  | Txn_decide_ack { rid; _ } ->
      rid

(** The engine batching hooks for this protocol — pass to
    [Rpc.Engine.set_batching] with a window controller. *)
let batching : msg Rpc.Engine.batching =
  {
    Rpc.Engine.wrap = (fun ~rid reqs -> Batch_req { rid; reqs });
    unwrap = (function Batch_rep { reps; _ } -> Some reps | _ -> None);
  }
