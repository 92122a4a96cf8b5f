(** Schedules: finite sequences of operations, with projections.

    A schedule is the operation subsequence of an execution
    (Section 2.1).  [project] implements the paper's [sigma|A]
    notation: the subsequence of operations belonging to a component
    (or satisfying any predicate). *)

type t = Action.t list

let empty : t = []
let length = List.length

(** [project p sched] keeps the operations satisfying [p] — the
    paper's "restricted to" operator. *)
let project (p : Action.t -> bool) (sched : t) : t = List.filter p sched

(** [project_txn t sched] keeps the operations about transaction [t]
    itself (not its descendants). *)
let project_txn (t : Txn.t) (sched : t) : t =
  project (fun a -> Txn.equal (Action.txn a) t) sched

(** [view_of t sched] is the "view" of transaction automaton [t]: the
    operations of the transaction automaton for [t], i.e. CREATE(T),
    returns of children of [T], and T's own requests.  This is the
    projection used in Theorem 10's condition 2 and in serial
    correctness. *)
let view_of (t : Txn.t) (sched : t) : t =
  let belongs a =
    let u = Action.txn a in
    match a with
    | Action.Create _ | Action.Request_commit _ -> Txn.equal u t
    | Action.Request_create _ ->
        (not (Txn.is_root u)) && Txn.equal (Txn.parent u) t
    | Action.Commit _ | Action.Abort _ ->
        (not (Txn.is_root u)) && Txn.equal (Txn.parent u) t
  in
  project belongs sched

let equal (a : t) (b : t) =
  List.length a = List.length b && List.for_all2 Action.equal a b

let pp ppf (s : t) = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Action.pp) s

(** Operations of transactions that are (reflexive) descendants of [t]. *)
let project_subtree (t : Txn.t) (sched : t) : t =
  project (fun a -> Txn.is_ancestor t (Action.txn a)) sched

(** Drop operations whose transaction satisfies [p] — used by the
    Theorem 10 construction, which removes all operations of replica
    accesses. *)
let erase (p : Txn.t -> bool) (sched : t) : t =
  project (fun a -> not (p (Action.txn a))) sched
