(** A concurrent (non-serial) execution engine for replicated
    nested-transaction systems — the "system C" of Theorem 11.

    The engine runs the {e same} user scripts as the serial systems,
    but with real concurrency: unordered siblings execute in an
    interleaved fashion (chosen by a seeded PRNG), transaction
    managers run quorum rounds against shared DMs, and conflicts are
    arbitrated at the copy level by Moss-style nested two-phase
    locking ({!Locks}).  Failures come from two sources: injected
    random aborts, and deadlock-victim aborts.

    Theorem 11 states that combining {e any} serially-correct
    copy-level concurrency control with the replication algorithm
    yields a system serially correct at the logical level for
    non-orphan user transactions.  The engine records every logical
    event (TM reads/writes, raw accesses) and the top-level commit
    order; {!Oracle} replays those events against a non-replicated
    serial store and compares outcomes — the executable counterpart of
    the theorem. *)

open Ioa
module Prng = Qc_util.Prng
module Item = Quorum.Item
module Config = Quorum.Config
module Description = Quorum.Description

type outcome = Committed of Value.t | Aborted

type kind =
  | KUser of Serial.User_txn.script
  | KTm of Item.t * Value.t option  (** [Some value(T)] for a write-TM *)
  | KAccess of { obj : string; akind : Txn.kind; payload : Value.t; initial : Value.t }

type status = Running | Blocked of Txn.t list | Finished of outcome

type wphase = WReading | WWriting

(** Which copy-level concurrency control arbitrates the run:
    Moss-style nested two-phase locking, Reed-style multiversion
    timestamp ordering, or none at all ([`NoCC] exists for ablation
    benchmarks and oracle mutation tests — with racing transactions
    the Theorem 11 check is then expected to fail). *)
type mode = [ `TwoPL | `Mvto | `NoCC ]

type node = {
  name : Txn.t;
  kind : kind;
  mutable status : status;
  mutable spawned : Txn.seg list;
  mutable outcomes : (Txn.seg * outcome) list;
  (* TM state *)
  mutable got : (string * (int * Value.t)) list;
  mutable wphase : wphase;
  mutable access_seq : int;
  mutable blocked_attempts : int;
}

(** One logical-level event, recorded at TM (or raw access) commit
    time.  [top] is the enclosing top-level transaction. *)
type event =
  | ERead of { top : Txn.t; tm : Txn.t; item : string; value : Value.t }
  | EWrite of { top : Txn.t; tm : Txn.t; item : string; value : Value.t }
  | ERawRead of { top : Txn.t; access : Txn.t; obj : string; value : Value.t }
  | ERawWrite of { top : Txn.t; access : Txn.t; obj : string; value : Value.t }

type t = {
  rng : Prng.t;
  desc : Description.t;
  locks : Locks.t;
  nodes : (Txn.t, node) Hashtbl.t;
  abort_rate : float;
  mode : mode;
  mvto : Mvto.t;
  mutable events : event list;  (** reverse order *)
  mutable commit_order : Txn.t list;  (** top-level commits, reverse *)
  mutable steps : int;
  mutable peak_concurrency : int;
}

let node t name = Hashtbl.find_opt t.nodes name

let top_level_of (name : Txn.t) : Txn.t =
  match name with [] -> [] | s :: _ -> [ s ]

let new_node t ~name ~kind =
  let n =
    {
      name;
      kind;
      status = Running;
      spawned = [];
      outcomes = [];
      got = [];
      wphase = WReading;
      access_seq = 0;
      blocked_attempts = 0;
    }
  in
  Hashtbl.replace t.nodes name n;
  n

let create ?(abort_rate = 0.02) ?(mode = `TwoPL) ~seed (desc : Description.t)
    : t =
  let t =
    {
      rng = Prng.create seed;
      desc;
      locks = Locks.create ();
      nodes = Hashtbl.create 256;
      abort_rate;
      mode;
      mvto = Mvto.create ();
      events = [];
      commit_order = [];
      steps = 0;
      peak_concurrency = 0;
    }
  in
  ignore (new_node t ~name:Txn.root ~kind:(KUser desc.Description.root_script));
  t

(* ---------- outcome bookkeeping ---------- *)

let record_outcome t ~(child : Txn.t) (o : outcome) =
  if not (Txn.is_root child) then
    match node t (Txn.parent child) with
    | Some p -> (
        match Txn.last_seg child with
        | Some seg ->
            if not (List.mem_assoc seg p.outcomes) then
              p.outcomes <- (seg, o) :: p.outcomes
        | None -> ())
    | None -> ()

let rec abort_subtree t (name : Txn.t) =
  match node t name with
  | None -> ()
  | Some n -> (
      match n.status with
      | Finished _ -> ()
      | Running | Blocked _ ->
          List.iter
            (fun seg -> abort_subtree t (Txn.child name seg))
            n.spawned;
          n.status <- Finished Aborted;
          Locks.abort t.locks name;
          Mvto.abort t.mvto name;
          record_outcome t ~child:name Aborted)

let finish_commit t (n : node) (v : Value.t) =
  n.status <- Finished (Committed v);
  (match t.mode with
  | `TwoPL | `NoCC -> Locks.commit t.locks n.name
  | `Mvto -> Mvto.commit t.mvto n.name);
  record_outcome t ~child:n.name (Committed v);
  if (not (Txn.is_root n.name)) && Txn.is_root (Txn.parent n.name) then
    t.commit_order <- n.name :: t.commit_order

(* ---------- deadlock detection ---------- *)

(* Wait-for graph over top-level transactions, built from currently
   blocked nodes.  Under strict 2PL a cycle among *distinct*
   top-levels is a certain deadlock: a top-level's locks are only
   freed at its own commit.  Waits within one top-level (a TM waiting
   for a sibling TM to commit and pass its lock upward) are excluded —
   they resolve by themselves unless there is a genuine sibling
   deadlock, which the blocked-retry threshold in the main loop
   eventually breaks. *)
let in_deadlock t (start_top : Txn.t) : bool =
  let edges =
    (* edge order cannot change the existential reachability below *)
    (* lint: order-insensitive *)
    Hashtbl.fold
      (fun _ n acc ->
        match n.status with
        | Blocked blockers ->
            let from = top_level_of n.name in
            List.fold_left
              (fun acc b ->
                let to_ = top_level_of b in
                if Txn.equal from to_ then acc else (from, to_) :: acc)
              acc blockers
        | Running | Finished _ -> acc)
      t.nodes []
  in
  let rec reach seen from =
    List.exists
      (fun (f, to_) ->
        Txn.equal f from
        && (Txn.equal to_ start_top
           || (not (List.exists (Txn.equal to_) seen))
              && reach (to_ :: seen) to_))
      edges
  in
  reach [ start_top ] start_top

(* The deadlock victim for a blocked access: its nearest TM ancestor
   if any, else the access itself. *)
let victim_for (name : Txn.t) (t : t) : Txn.t =
  let parent = Txn.parent name in
  match node t parent with
  | Some { kind = KTm _; _ } -> parent
  | _ -> name

(* ---------- spawning ---------- *)

let raw_initial t obj =
  match List.assoc_opt obj t.desc.Description.raw_objects with
  | Some v -> v
  | None -> Value.Nil

let spawn_child t (parent : node) (seg : Txn.seg) =
  let name = Txn.child parent.name seg in
  parent.spawned <- parent.spawned @ [ seg ];
  match Description.role_of t.desc name with
  | Some (Description.Tm (item, kind)) ->
      let value = match kind with Txn.Write -> Txn.data_of name | Txn.Read -> None in
      ignore (new_node t ~name ~kind:(KTm (item, value)))
  | Some Description.Raw_access ->
      let obj = Option.get (Txn.obj_of name) in
      let akind = Option.get (Txn.kind_of name) in
      let payload =
        match Txn.data_of name with Some v -> v | None -> Value.Nil
      in
      ignore
        (new_node t ~name
           ~kind:(KAccess { obj; akind; payload; initial = raw_initial t obj }))
  | Some Description.User -> (
      (* a Sub node: find its script *)
      match parent.kind with
      | KUser script -> (
          match
            List.find_opt
              (fun c ->
                match c with
                | Serial.User_txn.Sub (nm, _) ->
                    Txn.seg_equal (Txn.Seg nm) seg
                | Serial.User_txn.Access_child _ -> false)
              script.Serial.User_txn.children
          with
          | Some (Serial.User_txn.Sub (_, sub)) ->
              ignore (new_node t ~name ~kind:(KUser sub))
          | _ -> ())
      | _ -> ())
  | Some (Description.Replica_access _) | None -> ()

(* spawn a replica access under a TM *)
let spawn_access t (tm : node) ~dm ~akind ~payload ~item =
  let seq = tm.access_seq in
  tm.access_seq <- seq + 1;
  let seg = Txn.Access { obj = dm; kind = akind; data = payload; seq } in
  let name = Txn.child tm.name seg in
  tm.spawned <- tm.spawned @ [ seg ];
  ignore
    (new_node t ~name
       ~kind:(KAccess { obj = dm; akind; payload; initial = Item.dm_initial item }))

(* ---------- micro-steps ---------- *)

let children_nodes t (n : node) =
  List.filter_map (fun seg -> node t (Txn.child n.name seg)) n.spawned

let all_children_finished (t : t) (n : node) =
  List.for_all
    (fun c -> match c.status with Finished _ -> true | _ -> false)
    (children_nodes t n)

let user_commit_value (script : Serial.User_txn.script) (n : node) =
  let outs =
    List.map
      (fun c ->
        let seg = Serial.User_txn.seg_of_node c in
        match List.assoc_opt seg n.outcomes with
        | Some (Committed v) -> (seg, Serial.User_txn.Committed v)
        | Some Aborted | None -> (seg, Serial.User_txn.Aborted))
      script.Serial.User_txn.children
  in
  script.Serial.User_txn.returns outs

let record_event t ev = t.events <- ev :: t.events

(* Step a user-transaction node. *)
let step_user t (n : node) (script : Serial.User_txn.script) =
  let segs = List.map Serial.User_txn.seg_of_node script.Serial.User_txn.children in
  let unspawned =
    List.filter (fun s -> not (List.mem s n.spawned)) segs
  in
  (* Under MVTO, sibling subtransactions share their top-level's
     timestamp, so they must run sequentially for the timestamp order
     to serialize all conflicts (Reed's full design instead assigns
     hierarchical pseudo-times; see DESIGN.md).  Top-level
     transactions — the root's children — remain fully concurrent. *)
  let ordered =
    script.Serial.User_txn.ordered
    || (t.mode = `Mvto && not (Txn.is_root n.name))
  in
  match unspawned with
  | [] ->
      if all_children_finished t n then
        if Txn.is_root n.name then n.status <- Finished (Committed Value.Nil)
        else finish_commit t n (user_commit_value script n)
  | next :: _ ->
      if ordered then begin
        (* spawn strictly in order, waiting for the previous child *)
        let prior_done =
          List.for_all
            (fun c -> match c.status with Finished _ -> true | _ -> false)
            (children_nodes t n)
        in
        if prior_done then spawn_child t n next
      end
      else
        (* unordered: spawn any unspawned child — possibly several
           outstanding at once (sibling concurrency) *)
        spawn_child t n (Prng.choose t.rng unspawned)

(* Step a TM node.  Both kinds read from a read-quorum, keeping the
   highest-versioned data; a read-TM returns it, a write-TM then
   installs (vn + 1, value) at a write-quorum and returns nil. *)
let step_tm t (n : node) (item : Item.t) (value : Value.t option) =
  let spawn_quorum quorums ~akind ~payload =
    List.iter
      (fun dm -> spawn_access t n ~dm ~akind ~payload ~item)
      (Prng.choose t.rng quorums)
  in
  let children = children_nodes t n in
  if n.spawned = [] then
    spawn_quorum item.Item.config.Config.read_quorums ~akind:Txn.Read
      ~payload:Value.Nil
  else if
    List.exists
      (fun c -> match c.status with Finished Aborted -> true | _ -> false)
      children
  then abort_subtree t n.name
  else if
    List.for_all
      (fun c -> match c.status with Finished (Committed _) -> true | _ -> false)
      children
  then
    match (n.wphase, value) with
    | WReading, None ->
        (* return the value with the highest version number seen *)
        let _, v =
          List.fold_left
            (fun (bvn, bv) (_, (vn, v)) -> if vn > bvn then (vn, v) else (bvn, bv))
            (-1, item.Item.initial) n.got
        in
        record_event t
          (ERead { top = top_level_of n.name; tm = n.name; item = item.Item.name; value = v });
        finish_commit t n v
    | WReading, Some value ->
        let vn = List.fold_left (fun m (_, (vn, _)) -> Int.max m vn) 0 n.got in
        n.wphase <- WWriting;
        spawn_quorum item.Item.config.Config.write_quorums ~akind:Txn.Write
          ~payload:(Value.Versioned (vn + 1, value))
    | WWriting, None -> (* a read-TM never writes *) ()
    | WWriting, Some value ->
        record_event t
          (EWrite { top = top_level_of n.name; tm = n.name; item = item.Item.name; value });
        finish_commit t n Value.Nil

(* Step an access node: attempt the lock; on success perform the
   operation and commit immediately (the lock is inherited upward). *)
type access_result =
  | AOk of Value.t option  (** [Some v] for reads *)
  | ABlock of Txn.t list
  | AAbort  (** the CC demands the transaction abort (MVTO late write) *)

let attempt_access t (n : node) ~obj ~akind ~payload ~initial : access_result
    =
  match t.mode with
  | `TwoPL -> (
      match akind with
      | Txn.Read -> (
          match Locks.try_read t.locks ~obj ~initial ~who:n.name with
          | Ok v -> AOk (Some v)
          | Error bs -> ABlock bs)
      | Txn.Write -> (
          match Locks.try_write t.locks ~obj ~initial ~who:n.name payload with
          | Ok () -> AOk None
          | Error bs -> ABlock bs))
  | `NoCC -> (
      (* no concurrency control: operate on the raw version stack *)
      match akind with
      | Txn.Read ->
          AOk (Some (Locks.read_unlocked t.locks ~obj ~initial ~who:n.name))
      | Txn.Write ->
          Locks.write_unlocked t.locks ~obj ~initial ~who:n.name payload;
          AOk None)
  | `Mvto -> (
      match akind with
      | Txn.Read -> (
          match Mvto.try_read t.mvto ~obj ~initial ~who:n.name with
          | Mvto.ROk v -> AOk (Some v)
          | Mvto.RBlock bs -> ABlock bs
          | Mvto.RAbort -> AAbort)
      | Txn.Write -> (
          match Mvto.try_write t.mvto ~obj ~initial ~who:n.name payload with
          | Mvto.WOk -> AOk None
          | Mvto.WBlock bs -> ABlock bs
          | Mvto.WAbort -> AAbort))

let step_access t (n : node) ~obj ~akind ~payload ~initial =
  match attempt_access t n ~obj ~akind ~payload ~initial with
  | AAbort -> abort_subtree t (victim_for n.name t)
  | AOk read_value ->
      (* deliver the result to the parent *)
      (match (node t (Txn.parent n.name), read_value) with
      | Some ({ kind = KTm _; _ } as tm), Some v ->
          let vn, value =
            match v with Value.Versioned (vn, x) -> (vn, x) | other -> (0, other)
          in
          tm.got <- (obj, (vn, value)) :: tm.got
      | Some { kind = KUser _; _ }, Some v ->
          record_event t
            (ERawRead { top = top_level_of n.name; access = n.name; obj; value = v })
      | Some { kind = KUser _; _ }, None ->
          record_event t
            (ERawWrite
               { top = top_level_of n.name; access = n.name; obj; value = payload })
      | _ -> ());
      finish_commit t n (match read_value with Some v -> v | None -> Value.Nil)
  | ABlock blockers ->
      n.status <- Blocked blockers;
      n.blocked_attempts <- n.blocked_attempts + 1;
      (* cross-top-level deadlock: certain under strict 2PL; sibling
         deadlock within one top-level: break after enough futile
         retries *)
      if in_deadlock t (top_level_of n.name) || n.blocked_attempts > 64 then
        abort_subtree t (victim_for n.name t)

(* ---------- the main loop ---------- *)

(* Canonical (Txn-ordered) menu for the seeded scheduler: the PRNG
   picks an index, so the list order is part of the run — it must
   come from the transaction names, never from hash-bucket order. *)
let runnable t =
  (* lint: order-insensitive *)
  Hashtbl.fold
    (fun _ n acc ->
      match n.status with
      | Running | Blocked _ -> n :: acc
      | Finished _ -> acc)
    t.nodes []
  |> List.sort (fun a b -> Txn.compare a.name b.name)

let live_top_levels t =
  (* a commutative count over entries *)
  (* lint: order-insensitive *)
  Hashtbl.fold
    (fun name n acc ->
      match (name, n.status) with
      | [ _ ], (Running | Blocked _) -> acc + 1
      | _ -> acc)
    t.nodes 0

let step_node t (n : node) =
  match n.kind with
  | KUser script -> step_user t n script
  | KTm (item, value) -> step_tm t n item value
  | KAccess { obj; akind; payload; initial } ->
      step_access t n ~obj ~akind ~payload ~initial

type run_log = {
  events : event list;  (** in execution order *)
  commit_order : Txn.t list;  (** top-level commit order *)
  serial_order : Txn.t list;
      (** the witness serialization order the concurrency control
          guarantees: commit order for 2PL, timestamp order for MVTO *)
  outcomes : (Txn.t * outcome) list;  (** every node's final outcome *)
  final_dms : (string * Value.t) list;  (** committed DM values *)
  final_raws : (string * Value.t) list;
  steps : int;
  peak_concurrency : int;
  residual_locks : int;
}

(** Run to completion (all top-level transactions finished) or the
    step bound. *)
let run ?(max_steps = 200_000) (t : t) : run_log =
  let rec loop () =
    if t.steps >= max_steps then ()
    else
      match runnable t with
      | [] -> ()
      | ns ->
          t.steps <- t.steps + 1;
          t.peak_concurrency <- Int.max t.peak_concurrency (live_top_levels t);
          (* random abort injection *)
          if Prng.float t.rng < t.abort_rate then begin
            let candidates =
              List.filter
                (fun n ->
                  (not (Txn.is_root n.name))
                  &&
                  match n.kind with
                  | KUser _ | KTm _ -> true
                  | KAccess _ -> false)
                ns
            in
            match Prng.choose_opt t.rng candidates with
            | Some victim -> abort_subtree t victim.name
            | None -> ()
          end;
          let n = Prng.choose t.rng ns in
          (match n.status with
          | Blocked _ ->
              n.status <- Running;
              step_node t n
          | Running -> step_node t n
          | Finished _ -> ());
          loop ()
  in
  loop ();
  let outcomes =
    (* lint: order-insensitive *)
    Hashtbl.fold
      (fun name n acc ->
        match n.status with
        | Finished o -> (name, o) :: acc
        | Running | Blocked _ -> (name, Aborted) :: acc)
      t.nodes []
    |> List.sort (fun (a, _) (b, _) -> Txn.compare a b)
  in
  let all_values =
    match t.mode with
    | `TwoPL | `NoCC -> Locks.committed_values t.locks
    | `Mvto -> Mvto.committed_values t.mvto
  in
  let dm_names = Description.all_dm_names t.desc in
  let commit_order = List.rev t.commit_order in
  {
    events = List.rev t.events;
    commit_order;
    serial_order =
      (match t.mode with
      | `TwoPL | `NoCC -> commit_order
      | `Mvto -> Mvto.serial_order t.mvto commit_order);
    outcomes;
    final_dms = List.filter (fun (o, _) -> List.mem o dm_names) all_values;
    final_raws =
      List.filter
        (fun (o, _) -> List.mem_assoc o t.desc.Description.raw_objects)
        all_values;
    steps = t.steps;
    peak_concurrency = t.peak_concurrency;
    residual_locks =
      (match t.mode with
      | `TwoPL | `NoCC -> List.length (Locks.residual_holders t.locks)
      | `Mvto -> Mvto.residual t.mvto);
  }
