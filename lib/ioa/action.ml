(** The operations (actions) of nested transaction systems.

    Section 2.2 fixes five operation families.  For a transaction [T]:
    - [REQUEST_CREATE(T)] -- output of [parent(T)], input of the scheduler;
    - [CREATE(T)] -- output of the scheduler, input of [T] (or of the
      basic object holding [T] when [T] is an access);
    - [REQUEST_COMMIT(T,v)] -- output of [T] (or of its object), input
      of the scheduler;
    - [COMMIT(T,v)] -- output of the scheduler, input of [parent(T)];
    - [ABORT(T)] -- output of the scheduler, input of [parent(T)].

    [COMMIT(T,v)] and [ABORT(T)] are the {e return operations} for [T]. *)

type t =
  | Request_create of Txn.t
  | Create of Txn.t
  | Request_commit of Txn.t * Value.t
  | Commit of Txn.t * Value.t
  | Abort of Txn.t

(** The transaction an operation is about. *)
let txn = function
  | Request_create t | Create t -> t
  | Request_commit (t, _) | Commit (t, _) -> t
  | Abort t -> t

(** Is this a return operation (COMMIT or ABORT) for [t]? *)
let is_return_for t = function
  | Commit (t', _) | Abort t' -> Txn.equal t t'
  | Request_create _ | Create _ | Request_commit _ -> false

let is_return = function
  | Commit _ | Abort _ -> true
  | Request_create _ | Create _ | Request_commit _ -> false

let equal a b =
  match (a, b) with
  | Request_create t, Request_create u -> Txn.equal t u
  | Create t, Create u -> Txn.equal t u
  | Request_commit (t, v), Request_commit (u, w) ->
      Txn.equal t u && Value.equal v w
  | Commit (t, v), Commit (u, w) -> Txn.equal t u && Value.equal v w
  | Abort t, Abort u -> Txn.equal t u
  | (Request_create _ | Create _ | Request_commit _ | Commit _ | Abort _), _
    ->
      false

let compare = Stdlib.compare

let pp ppf = function
  | Request_create t -> Fmt.pf ppf "REQUEST_CREATE(%a)" Txn.pp t
  | Create t -> Fmt.pf ppf "CREATE(%a)" Txn.pp t
  | Request_commit (t, v) ->
      Fmt.pf ppf "REQUEST_COMMIT(%a, %a)" Txn.pp t Value.pp v
  | Commit (t, v) -> Fmt.pf ppf "COMMIT(%a, %a)" Txn.pp t Value.pp v
  | Abort t -> Fmt.pf ppf "ABORT(%a)" Txn.pp t
