(** Reusable cluster-correctness predicates: the single-writer
    consistency audit (the oracle of nemesis tests and the seed
    swarm), static quorum-intersection checks, and
    liveness-after-heal.  The audit's violation strings render into
    {!Store.Cluster.digest}, so their wording is frozen. *)

type audit
(** Per-key completed-write history plus the violation log. *)

val audit : unit -> audit

val read_ok :
  audit -> key:string -> started:float -> vn:int -> value:int -> unit
(** Check one successful read issued at [started]: it must return a
    version at least as new as the newest write completed before
    [started], carrying the value written at that version. *)

val write_ok : audit -> key:string -> vn:int -> value:int -> now:float -> unit
(** Record one successful write completing at [now]; versions per key
    must be strictly increasing (single-writer-per-key). *)

val violations : audit -> string list
(** Violations so far, newest first (the historical order). *)

type txn_audit
(** Audit state for multi-key transaction histories: decided commits
    (the replica-side decision hook — authoritative) and client-acked
    commits (which carry read snapshots and anchor recency). *)

val txn_audit : unit -> txn_audit

val same_writes :
  (string * int * int) list -> (string * int * int) list -> bool
(** Write-set equality: the same answer as polymorphic [=], with an
    early [true] when both sides are one physical list. *)

val txn_decided :
  txn_audit ->
  txid:Qc_util.Txid.t ->
  commit:bool ->
  writes:(string * int * int) list ->
  unit
(** Record a decision learned at a replica, keyed by the txid's int.
    Aborts are ignored; duplicate commit records must agree on the
    write set. *)

val txn_committed :
  txn_audit ->
  txid:string ->
  started:float ->
  now:float ->
  reads:(string * int * int) list ->
  writes:(string * int * int) list ->
  unit
(** Record a client-acked commit, named by its txid's name, with its
    prepare-time read snapshot ((key, vn, value) per read) and
    installed writes. *)

val txn_check : txn_audit -> unit
(** Run the end-of-run checks, appending violations: acked ⊆ decided,
    per-key version uniqueness across decided commits, read validity,
    recency of acked commits, and acyclicity of the serialization
    graph (ww/wr/rw edges).  Decided transactions are matched to acked
    ones, numbered and reported by their txid names. *)

val txn_violations : txn_audit -> string list
(** Violations so far, newest first. *)

val txn_decided_count : txn_audit -> int

val quorum_ok : name:string -> Quorum.Config.t -> (unit, string) result
(** Static gate: legal read/write intersection and
    intersection-preserving minimization, via {!Lint.Quorum_check}. *)

val liveness_after_heal :
  script:Script.t -> completions:(float * bool) list -> (unit, string) result
(** After a script that settles ({!Script.quiesces_at}), at least one
    of the operations completing later must succeed.  [completions]
    is the run's chronological [(finished_at, ok)] log.  Vacuously
    [Ok] when the script never settles or nothing completes after the
    heal. *)
