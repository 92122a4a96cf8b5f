(** Coordinators (Section 4): "we separate the read, write, and
    reconfigure tasks of the TMs into modules called coordinators.
    This is done most naturally by introducing another level of
    nesting."

    Two coordinator shapes suffice for all three TM kinds:

    - a {e query} coordinator reads DMs, keeping the value with the
      highest version number and the configuration with the highest
      generation number, until the highest-generation configuration
      seen has a read-quorum among the DMs read; it then returns the
      collected summary as a [Recon_state] value.  This is the common
      read phase of Gifford's logical read, logical write, and
      reconfigure operations.

    - a {e push} coordinator writes a payload (either data
      [(version, value)] or a configuration announcement
      [(generation, configuration)]) to the DMs until some
      write-quorum of its {e target} configuration has acknowledged;
      it then returns [nil].  Pushing data to a write-quorum of the
      discovered configuration is the write phase of a logical write;
      a reconfiguration pushes data to a write-quorum of the {e new}
      configuration, then the configuration announcement to a
      write-quorum of the {e old} one.

    Coordinator names carry their parameters ([Param] segments):
    query coordinators are [query(k)] (attempt number), push
    coordinators [push([payload; target; slot])].  Because payloads
    are computed at run time, coordinators are hosted by an
    {!Ioa.Family} per TM. *)

open Ioa
module Config = Quorum.Config

(** {1 Name construction and parsing} *)

let query_name ~tm ~attempt =
  Txn.child tm (Txn.Param ("query", Value.Int attempt))

let push_name ~tm ~payload ~target ~slot =
  Txn.child tm
    (Txn.Param ("push", Value.List [ payload; Value.Config target; Value.Int slot ]))

type role = Query | Push of { payload : Value.t; target : Config.t }

let role_of (t : Txn.t) : role option =
  match Txn.last_seg t with
  | Some (Txn.Param ("query", _)) -> Some Query
  | Some (Txn.Param ("push", Value.List [ payload; Value.Config target; Value.Int _ ]))
    ->
      Some (Push { payload; target })
  | _ -> None

let is_coordinator t = role_of t <> None

(** {1 The member automaton} *)

type state = {
  self : Txn.t;
  item : Quorum.Item.t;
  max_attempts : int;
  awake : bool;
  done_ : bool;
  requested : Txn.Set.t;
  (* query phase data *)
  best_vn : int;
  best_value : Value.t;
  best_gen : int;
  best_config : Config.t option;
  read : string list;
  (* push phase data *)
  written : string list;
}

let init ~(item : Quorum.Item.t) ~max_attempts (self : Txn.t) : state =
  {
    self;
    item;
    max_attempts;
    awake = false;
    done_ = false;
    requested = Txn.Set.empty;
    best_vn = -1;
    best_value = item.Quorum.Item.initial;
    best_gen = -1;
    best_config = None;
    read = [];
    written = [];
  }

let attempts_at st d =
  Txn.Set.fold
    (fun t acc ->
      match Txn.obj_of t with
      | Some o when String.equal o d -> acc + 1
      | _ -> acc)
    st.requested 0

let is_child_access st t =
  (not (Txn.is_root t))
  && Txn.equal (Txn.parent t) st.self
  && List.exists (fun d -> Txn.obj_of t = Some d) st.item.Quorum.Item.dms

(* A query is complete when the highest-generation configuration seen
   has a read-quorum within the DMs already read. *)
let query_complete st =
  match st.best_config with
  | Some c -> Config.read_covered c st.read
  | None -> false

let query_summary st =
  Value.Recon_state
    {
      version = Int.max st.best_vn 0;
      data = st.best_value;
      generation = Int.max st.best_gen 0;
      config =
        (match st.best_config with
        | Some c -> c
        | None -> st.item.Quorum.Item.config);
    }

let push_complete ~target st = Config.write_covered target st.written

let transition (st : state) (a : Action.t) : state option =
  let role = role_of st.self in
  match a with
  | Action.Create t when Txn.equal t st.self -> Some { st with awake = true }
  | Action.Request_create t when is_child_access st t -> (
      if (not st.awake) || Txn.Set.mem t st.requested then None
      else
        match (role, Txn.kind_of t) with
        | Some Query, Some Txn.Read ->
            Some { st with requested = Txn.Set.add t st.requested }
        | Some (Push { payload; _ }), Some Txn.Write
          when Option.fold ~none:false
                 ~some:(fun d -> Value.equal d payload)
                 (Txn.data_of t) ->
            Some { st with requested = Txn.Set.add t st.requested }
        | _ -> None)
  | Action.Commit (t, v) when is_child_access st t -> (
      let dm = Option.get (Txn.obj_of t) in
      match role with
      | Some Query -> (
          let read = if List.mem dm st.read then st.read else dm :: st.read in
          match v with
          | Value.Recon_state { version; data; generation; config } ->
              let st = { st with read } in
              let st =
                if version > st.best_vn then
                  { st with best_vn = version; best_value = data }
                else st
              in
              let st =
                if generation > st.best_gen then
                  { st with best_gen = generation; best_config = Some config }
                else st
              in
              Some st
          | _ -> Some { st with read })
      | Some (Push _) ->
          let written =
            if List.mem dm st.written then st.written else dm :: st.written
          in
          Some { st with written }
      | None -> None)
  | Action.Abort t when is_child_access st t -> Some st
  | Action.Request_commit (t, v) when Txn.equal t st.self -> (
      match role with
      | Some Query ->
          if st.awake && (not st.done_) && query_complete st
             && Value.equal v (query_summary st)
          then Some { st with done_ = true; awake = false }
          else None
      | Some (Push { target; _ }) ->
          if st.awake && (not st.done_) && push_complete ~target st
             && Value.equal v Value.Nil
          then Some { st with done_ = true; awake = false }
          else None
      | None -> None)
  | _ -> None

let enabled (st : state) : Action.t list =
  if (not st.awake) || st.done_ then []
  else
    match role_of st.self with
    | Some Query ->
        let reqs =
          if query_complete st then []
          else
            List.filter_map
              (fun d ->
                let n = attempts_at st d in
                if n < st.max_attempts then
                  Some
                    (Action.Request_create
                       (Txn.child st.self
                          (Txn.Access
                             { obj = d; kind = Txn.Read; data = Value.Nil; seq = n })))
                else None)
              st.item.Quorum.Item.dms
        in
        let finish =
          if query_complete st then
            [ Action.Request_commit (st.self, query_summary st) ]
          else []
        in
        reqs @ finish
    | Some (Push { payload; target }) ->
        let reqs =
          if push_complete ~target st then []
          else
            List.filter_map
              (fun d ->
                let n = attempts_at st d in
                if n < st.max_attempts then
                  Some
                    (Action.Request_create
                       (Txn.child st.self
                          (Txn.Access
                             { obj = d; kind = Txn.Write; data = payload; seq = n })))
                else None)
              (Config.members target)
        in
        let finish =
          if push_complete ~target st then
            [ Action.Request_commit (st.self, Value.Nil) ]
          else []
        in
        reqs @ finish
    | None -> []

(** The family of all coordinators under one TM. *)
let family ~(tm : Txn.t) ~(item : Quorum.Item.t) ?(max_attempts = 3) () :
    Component.t =
  let member t =
    (not (Txn.is_root t)) && Txn.equal (Txn.parent t) tm && is_coordinator t
  in
  let spec =
    {
      Family.init = init ~item ~max_attempts;
      transition;
      enabled;
      m_is_input =
        (fun m a ->
          match a with
          | Action.Create t -> Txn.equal t m
          | Action.Commit (t, _) | Action.Abort t ->
              (not (Txn.is_root t)) && Txn.equal (Txn.parent t) m
          | Action.Request_create _ | Action.Request_commit _ -> false);
      m_is_output =
        (fun m a ->
          match a with
          | Action.Request_create t ->
              (not (Txn.is_root t)) && Txn.equal (Txn.parent t) m
          | Action.Request_commit (t, _) -> Txn.equal t m
          | Action.Create _ | Action.Commit _ | Action.Abort _ -> false);
    }
  in
  Family.make ~name:(Fmt.str "coords:%s" (Txn.to_string tm)) ~member spec
