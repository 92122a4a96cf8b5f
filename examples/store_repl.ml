(* A driveable replicated-store shell: simulated replicas under
   majority quorums, controlled by commands on stdin.  Useful for
   poking at quorum behaviour by hand (or from a script).

     put KEY INT        quorum write
     get KEY            quorum read
     crash NODE         e.g. crash r3
     recover NODE
     cut A B            cut the link between two nodes
     heal A B
     dump               print every replica's stored state
     policy             show the RPC retry/hedge policy
     policy retries N   N bounded retries per request (0 disables)
     policy hedge D     hedge to the remaining replicas after D time units
     policy off         back to fire-once (the default)
     loss P             set the network's message-loss probability
     shards             show the shard layout
     shards N [hash|range]
                        rebuild the world with N shards of 5 replicas
                        each (all state is reset)
     batch W            coalesce per-replica requests over a fixed
                        W-unit window (replaces an adaptive one)
     batch off          back to unbatched (the default)
     batch              show the window the next flush waits
     window adaptive    AIMD-controlled batching window (replaces batch)
     window off         stop adapting: pin each shard's window at the
                        width its controller reached (batching stays on)
     storage W F [naive|group]
                        rebuild the world with a storage device per
                        replica: W per-write cost, F per-fsync cost,
                        naive (fsync per install) or group commit
                        (default; all state is reset)
     storage off        rebuild without storage (all state is reset)
     top                live per-shard health over the last 200 time
                        units: op rate, read fraction, success rate,
                        p99 latency, apply-queue depth
     balance            per-replica load, per-shard totals and spread
     txn begin          open a cross-shard transaction buffer
     txn read KEY       add KEY to the open transaction's read set
     txn write KEY INT  add a write to the open transaction
     txn commit [2pc|paxos]
                        run the buffered transaction end to end:
                        prepare locks a vote quorum per shard, then
                        the decision is a coordinator bit (2pc) or a
                        Paxos register over the participant replicas
                        (paxos, the default)
     txn abort          discard the buffer without touching replicas
     txn                show the open transaction's footprint
     nemesis SCRIPT     install a fault schedule (Harness.Script text
                        form) relative to now, e.g.
                        nemesis @10 crash r0; @40 recover r0
     script             show every fault schedule installed so far
     lint               statically check every shard's quorum
                        configuration (intersection, minimality,
                        non-domination) without touching the simulation
     tune               per-shard strategy report: current strategy,
                        live read fraction over the health window, and
                        the workload-aware optimizer's pick with its
                        predicted load / latency / availability
     stats              ops / network counters
     metrics            dump the metrics registry
     trace FILE         write the session's Chrome trace (Perfetto)
     help | quit

   Every operation is traced; `trace session.json` writes what
   happened so far, and setting OBS_TRACE=FILE in the environment
   writes the whole session's trace on quit.

   Example:
     printf 'put a 1\ncrash r0\ncrash r1\nput a 2\nget a\nquit\n' \
       | dune exec examples/store_repl.exe *)

module Core = Sim.Core
module Net = Sim.Net

let replicas_per_shard = 5
let n_keys = 100 (* bounds the [`Range] partition (keys "k0".."k99") *)

type world = {
  sim : Core.t;
  tracer : Obs.Trace.t;
  metrics : Obs.Metrics.t;
  net : Store.Protocol.msg Net.t;
  replicas : Store.Replica.t list;
  router : Store.Router.t;
  ewmas : Store.Ewma.t array;
      (* per shard: the reply latency of each replica, learned by a
         non-steering probe, as the cluster's tuner learns it *)
  health : Obs.Health.t;
  n_shards : int;
  scheme : Store.Router.scheme;
  storage : (float * float * bool) option;
      (* (write_cost, fsync_cost, group_commit) of every replica's
         device; [None] = synchronous installs (the default) *)
  groups : string array array;
  mutable nemesis : (float * Harness.Script.t) list;
      (* fault schedules installed this session, oldest first, each
         tagged with the virtual time it was installed at *)
}

(* Build a fresh world: [n_shards] disjoint replica groups of
   [replicas_per_shard] each, one majority strategy per shard, keys
   routed by [scheme].  With one shard the construction (names, seeds,
   labels, handler registration) is exactly the historical
   single-group shell, so scripted default sessions reproduce byte for
   byte. *)
let make_world ~n_shards ~scheme ~storage =
  let sim = Core.create ~seed:7 in
  let tracer = Obs.Trace.create ~capacity:65536 () in
  Core.attach_tracer sim tracer;
  let metrics = Obs.Metrics.create () in
  let groups =
    Store.Cluster.group_names ~n_shards ~n_replicas:replicas_per_shard
  in
  let replica_names = List.concat_map Array.to_list (Array.to_list groups) in
  let net =
    Net.create ~sim
      ~nodes:(replica_names @ [ "client" ])
      ~latency:(Net.lognormal_latency ~mu:0.7 ~sigma:0.4)
      ()
  in
  let replicas =
    List.map
      (fun name ->
        let extra_labels =
          if n_shards = 1 then []
          else [ ("shard", String.sub name 1 (String.index name ':' - 1)) ]
        in
        match storage with
        | None -> Store.Replica.create ~metrics ~name ~extra_labels ()
        | Some (write_cost, fsync_cost, group_commit) ->
            Store.Replica.create ~metrics ~name ~extra_labels
              ~storage:
                (Sim.Storage.create ~sim ~name:(name ^ ":disk") ~write_cost
                   ~fsync_cost ())
              ~group_commit ())
      replica_names
  in
  List.iter (fun r -> Store.Replica.attach r ~net) replicas;
  let router =
    Store.Router.create ~name:"client" ~sim ~net ~groups
      ~strategies:
        (Array.init n_shards (fun _ ->
             Store.Strategy.majority replicas_per_shard))
      ~scheme ~n_keys ~timeout:50.0 ~read_repair:true ~trace_ctx:true ~metrics
      ()
  in
  Store.Router.attach router;
  (* per-shard apply-queue probe: mean queue depth over the shard's
     replicas at sample time *)
  let queue_depth s =
    let group = Store.Router.replicas router ~shard:s in
    let depths =
      List.filter_map
        (fun (r : Store.Replica.t) ->
          if Array.exists (String.equal r.Store.Replica.name) group then
            Some (Store.Replica.queue_depth r)
          else None)
        replicas
    in
    match depths with
    | [] -> Float.nan
    | _ ->
        float_of_int (List.fold_left ( + ) 0 depths)
        /. float_of_int (List.length depths)
  in
  let health = Obs.Health.create ~window:200.0 ~n_shards ~queue_depth () in
  let ewmas =
    Array.init n_shards (fun _ -> Store.Ewma.create ~n:replicas_per_shard)
  in
  Array.iteri
    (fun s ewma ->
      let group = Store.Router.replicas router ~shard:s in
      let replica i =
        List.find
          (fun (r : Store.Replica.t) ->
            String.equal r.Store.Replica.name group.(i))
          replicas
      in
      Store.Router.set_probe router ~shard:s
        (Some
           {
             Store.Steer.ewma;
             queue_depth =
               (fun i -> float_of_int (Store.Replica.queue_depth (replica i)));
             steer = false;
           }))
    ewmas;
  { sim; tracer; metrics; net; replicas; router; ewmas; health; n_shards;
    scheme; storage; groups; nemesis = [] }

(* shards N [hash|range] — [Ok None] means "just show the layout" *)
let parse_shards = function
  | [] -> Ok None
  | n :: rest -> (
      match int_of_string_opt n with
      | None -> Error "shard count must be an integer"
      | Some n when n < 1 || n > 16 -> Error "shard count must be in [1, 16]"
      | Some n -> (
          match rest with
          | [] -> Ok (Some (n, None))
          | [ "hash" ] -> Ok (Some (n, Some `Hash))
          | [ "range" ] -> Ok (Some (n, Some `Range))
          | _ -> Error "scheme must be 'hash' or 'range'"))

(* storage W F [naive|group] | storage off — [Ok None] shows the device *)
let parse_storage = function
  | [] -> Ok None
  | [ "off" ] -> Ok (Some None)
  | w :: f :: rest -> (
      match (float_of_string_opt w, float_of_string_opt f) with
      | Some w, Some f
        when Float.is_finite w && w >= 0.0 && Float.is_finite f && f >= 0.0 -> (
          match rest with
          | [] | [ "group" ] -> Ok (Some (Some (w, f, true)))
          | [ "naive" ] -> Ok (Some (Some (w, f, false)))
          | _ -> Error "discipline must be 'naive' or 'group'"
      )
      | _ -> Error "costs must be finite numbers >= 0")
  | _ -> Error "usage: storage [W F [naive|group] | off]"

(* Statically verify every shard's live quorum configuration: lower
   the bitmask strategy to an explicit {!Quorum.Config} over the
   shard's replica names and run the lint's quorum checker on it —
   the same verdicts `lint.exe quorum` computes, but against the world
   the shell actually routes to. *)
let lint_world w =
  let shard s =
    let strat = Store.Router.strategy w.router ~shard:s in
    let group = Store.Router.replicas w.router ~shard:s in
    match Store.Strategy.to_config strat group with
    | Error e -> Error (Fmt.str "shard %d: %s" s e)
    | Ok config ->
        Ok
          (Lint.Quorum_check.check_config
             ~name:(Fmt.str "shard%d:%s" s strat.Store.Strategy.name)
             config)
  in
  let rec go s acc =
    if s >= Store.Router.n_shards w.router then Ok (List.rev acc)
    else
      match shard s with Error e -> Error e | Ok v -> go (s + 1) (v :: acc)
  in
  go 0 []

(* The transaction layer's extra static obligation, checked against
   the live world: commit-version uniqueness needs any two prepare
   (vote) quorums of a shard to intersect — a vote quorum is a mask
   that is simultaneously a read and a write quorum, so this follows
   from read/write intersection only when both predicates are
   monotone, which is worth verifying rather than assuming. *)
let txn_lint w =
  List.init (Store.Router.n_shards w.router) (fun s ->
      let strat = Store.Router.strategy w.router ~shard:s in
      let n = strat.Store.Strategy.n in
      let votes =
        List.filter
          (fun m ->
            strat.Store.Strategy.read_ok m && strat.Store.Strategy.write_ok m)
          (List.init ((1 lsl n) - 1) (fun i -> i + 1))
      in
      let ok =
        votes <> []
        && List.for_all
             (fun a -> List.for_all (fun b -> a land b <> 0) votes)
             votes
      in
      (s, ok))

(* batch W | batch off — [Ok None] means "just show the window" *)
let parse_batch = function
  | [] -> Ok None
  | [ "off" ] -> Ok (Some None)
  | [ w ] -> (
      match float_of_string_opt w with
      | Some w when Float.is_finite w && w >= 0.0 -> Ok (Some (Some w))
      | _ -> Error "window must be a finite number >= 0")
  | _ -> Error "usage: batch [W | off]"

let () =
  let w = ref (make_world ~n_shards:1 ~scheme:`Hash ~storage:None) in
  (* the open transaction's buffered footprint (reversed input order),
     and the txid sequence shared by every coordinator this session —
     replicas remember decided txids, so the sequence never restarts *)
  let txn_buf : (string list * (string * int) list) option ref = ref None in
  let txn_seq = ref 0 in
  Fmt.pr "replicated store: 5 replicas, majority quorums, read repair on.@.";
  Fmt.pr "type 'help' for commands.@.";
  let run_op f =
    f ();
    (* drive the simulation until the operation resolves *)
    Core.run !w.sim
  in
  (* feed the health monitor from inside each op's completion callback,
     at the virtual time the op resolved *)
  let observe_health ~key ~read ~ok ~latency =
    Obs.Health.record !w.health ~at:(Core.now !w.sim)
      ~shard:(Store.Router.shard_of !w.router key)
      ~read ~ok ~latency
  in
  (* Fault commands may name only the world's own nodes: [Net] would
     take any other name for a new node, down until recovered. *)
  let with_nodes names f =
    let nodes =
      List.concat_map Array.to_list (Array.to_list !w.groups) @ [ "client" ]
    in
    match
      List.find_opt
        (fun n -> not (List.exists (String.equal n) nodes))
        names
    with
    | None -> f ()
    | Some bad ->
        Fmt.pr "unknown node %s (nodes: %s)@." bad (String.concat " " nodes)
  in
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "" ] -> loop ()
        | [ "quit" ] | [ "exit" ] ->
            (match Sys.getenv_opt "OBS_TRACE" with
            | Some path -> (
                try
                  Obs.Export.write_chrome path !w.tracer;
                  Fmt.pr "wrote %d trace events to %s@."
                    (Obs.Trace.length !w.tracer) path
                with Sys_error e -> Fmt.pr "cannot write trace: %s@." e)
            | None -> ());
            Fmt.pr "bye.@."
        | [ "help" ] ->
            Fmt.pr
              "put KEY INT | get KEY | crash NODE | recover NODE | cut A B | \
               heal A B | dump | policy [retries N | hedge D | off] | loss P | \
               shards [N [hash|range]] | batch [W | off] | window [adaptive | \
               off] | storage [W F [naive|group] | off] | txn [begin | read \
               KEY | write KEY INT | commit [2pc|paxos] | abort] | nemesis \
               SCRIPT | script | top | balance | lint | tune | stats | \
               metrics | trace FILE | quit@.";
            loop ()
        | [ "put"; key; v ] ->
            (match int_of_string_opt v with
            | None -> Fmt.pr "value must be an integer@."
            | Some value ->
                run_op (fun () ->
                    Store.Router.write !w.router ~key ~value
                      ~on_done:(fun ~ok ~vn ~value:_ ~latency ->
                        observe_health ~key ~read:false ~ok ~latency;
                        if ok then
                          Fmt.pr "OK  %s := %d (version %d, %.1f time units)@."
                            key value vn latency
                        else Fmt.pr "FAIL %s := %d (no write quorum)@." key value)));
            loop ()
        | [ "get"; key ] ->
            run_op (fun () ->
                Store.Router.read !w.router ~key
                  ~on_done:(fun ~ok ~vn ~value ~latency ->
                    observe_health ~key ~read:true ~ok ~latency;
                    if ok then
                      Fmt.pr "OK  %s = %d (version %d, %.1f time units)@." key
                        value vn latency
                    else Fmt.pr "FAIL %s (no read quorum)@." key));
            loop ()
        | [ "crash"; node ] ->
            with_nodes [ node ] (fun () ->
                Net.crash !w.net node;
                Fmt.pr "crashed %s@." node);
            loop ()
        | [ "recover"; node ] ->
            with_nodes [ node ] (fun () ->
                Net.recover !w.net node;
                Fmt.pr "recovered %s@." node);
            loop ()
        | [ "cut"; a; b ] ->
            with_nodes [ a; b ] (fun () ->
                Net.cut_link !w.net a b;
                Fmt.pr "cut %s <-> %s@." a b);
            loop ()
        | [ "heal"; a; b ] ->
            with_nodes [ a; b ] (fun () ->
                Net.heal_link !w.net a b;
                Fmt.pr "healed %s <-> %s@." a b);
            loop ()
        | [ "dump" ] ->
            List.iter
              (fun (r : Store.Replica.t) ->
                let state =
                  List.map
                    (fun (k, vn, v) -> Fmt.str "%s=<%d,%d>" k vn v)
                    (Store.Replica.bindings r)
                in
                Fmt.pr "%-4s %s %s@." r.Store.Replica.name
                  (if Net.is_up !w.net r.Store.Replica.name then "up  "
                   else "DOWN")
                  (String.concat " " (List.sort compare state)))
              !w.replicas;
            loop ()
        | "policy" :: rest ->
            (* validate before applying: bad values get an error line,
               never an exception *)
            let apply p =
              match Rpc.Policy.validate p with
              | Ok () ->
                  Store.Router.set_policy !w.router p;
                  Fmt.pr "policy: %a@." Rpc.Policy.pp p
              | Error e -> Fmt.pr "invalid policy: %s@." e
            in
            (match rest with
            | [] ->
                Fmt.pr "policy: %a@." Rpc.Policy.pp
                  (Store.Router.policy !w.router)
            | [ "off" ] -> apply Rpc.Policy.default
            | [ "retries"; n ] -> (
                match int_of_string_opt n with
                | None -> Fmt.pr "invalid policy: retries takes an integer@."
                | Some n ->
                    apply
                      { (Store.Router.policy !w.router) with
                        Rpc.Policy.max_attempts = n + 1 })
            | [ "hedge"; d ] -> (
                match float_of_string_opt d with
                | None -> Fmt.pr "invalid policy: hedge takes a number@."
                | Some d ->
                    apply
                      { (Store.Router.policy !w.router) with
                        Rpc.Policy.hedge_delay = Some d })
            | _ ->
                Fmt.pr "usage: policy [retries N | hedge D | off]@.");
            loop ()
        | [ "loss"; p ] ->
            (match float_of_string_opt p with
            | Some p when p >= 0.0 && p < 1.0 ->
                Net.set_loss !w.net p;
                Fmt.pr "loss: %g@." p
            | _ -> Fmt.pr "loss must be a number in [0, 1)@.");
            loop ()
        | "shards" :: rest ->
            (match parse_shards rest with
            | Error e -> Fmt.pr "invalid shards: %s@." e
            | Ok None ->
                Fmt.pr "shards: %d (%s), %d replicas each@." !w.n_shards
                  (Store.Router.scheme_label !w.scheme)
                  replicas_per_shard
            | Ok (Some (n, scheme)) ->
                let scheme = Option.value scheme ~default:!w.scheme in
                w := make_world ~n_shards:n ~scheme ~storage:!w.storage;
                Fmt.pr
                  "rebuilt: %d shard%s (%s), %d replicas each — all state \
                   reset@."
                  n
                  (if n = 1 then "" else "s")
                  (Store.Router.scheme_label scheme)
                  replicas_per_shard;
                if n > 1 then
                  Fmt.pr "replicas are named s<shard>:r<index>, e.g. s0:r0@.");
            loop ()
        | "batch" :: rest ->
            (match parse_batch rest with
            | Error e -> Fmt.pr "invalid batch: %s@." e
            | Ok win ->
                Option.iter
                  (fun win ->
                    Store.Router.set_batching !w.router
                      (Option.map Rpc.Window.fixed win))
                  win;
                match Store.Router.batching !w.router with
                | None -> Fmt.pr "batch: off@."
                | Some c -> Fmt.pr "batch: window %g@." (Rpc.Window.window c));
            loop ()
        | "window" :: rest ->
            (match rest with
            | [] -> (
                match Store.Router.batching !w.router with
                | Some c when Rpc.Window.config c = Rpc.Window.Adaptive ->
                    Fmt.pr "window: adaptive, currently %g (%a)@."
                      (Rpc.Window.window c) Rpc.Window.pp_config
                      Rpc.Window.Adaptive
                | _ -> Fmt.pr "window: static (see 'batch')@.")
            | [ "adaptive" ] ->
                Store.Router.set_batching !w.router
                  (Some Rpc.Window.default_config);
                Fmt.pr "window: adaptive (%a)@." Rpc.Window.pp_config
                  Rpc.Window.default_config
            | [ "off" ] when Option.is_none (Store.Router.batching !w.router) ->
                Fmt.pr "window: batching is off (see 'batch')@."
            | [ "off" ] ->
                (* each shard keeps the width its own controller reached *)
                Array.iter
                  (fun c ->
                    Option.iter
                      (fun ctl ->
                        Store.Client.set_batching c
                          (Some (Rpc.Window.fixed (Rpc.Window.window ctl))))
                      (Store.Client.batching c))
                  (Store.Router.clients !w.router);
                Fmt.pr "window: each shard pinned at its current width@."
            | _ -> Fmt.pr "usage: window [adaptive | off]@.");
            loop ()
        | "storage" :: rest ->
            (match parse_storage rest with
            | Error e -> Fmt.pr "invalid storage: %s@." e
            | Ok None -> (
                match !w.storage with
                | None -> Fmt.pr "storage: off (synchronous installs)@."
                | Some (wc, fc, gc) ->
                    Fmt.pr "storage: write %g fsync %g, %s commit@." wc fc
                      (if gc then "group" else "per-install (naive)"))
            | Ok (Some storage) ->
                w := make_world ~n_shards:!w.n_shards ~scheme:!w.scheme ~storage;
                (match storage with
                | None -> Fmt.pr "rebuilt without storage — all state reset@."
                | Some (wc, fc, gc) ->
                    Fmt.pr
                      "rebuilt: storage write %g fsync %g, %s commit — all \
                       state reset@."
                      wc fc
                      (if gc then "group" else "per-install (naive)")));
            loop ()
        | [ "top" ] ->
            Fmt.pr "%s%!"
              (Obs.Health.render
                 (Obs.Health.sample !w.health ~at:(Core.now !w.sim)));
            loop ()
        | [ "balance" ] ->
            let shard_loads =
              List.init !w.n_shards (fun s ->
                  let group = Store.Router.replicas !w.router ~shard:s in
                  let loads =
                    List.filter
                      (fun (r : Store.Replica.t) ->
                        Array.exists (String.equal r.Store.Replica.name) group)
                      !w.replicas
                    |> List.map (fun (r : Store.Replica.t) ->
                           (r.Store.Replica.name, Store.Replica.load r))
                  in
                  let total = List.fold_left (fun a (_, l) -> a + l) 0 loads in
                  Fmt.pr "shard %d: %s | total %d@." s
                    (String.concat " "
                       (List.map (fun (n, l) -> Fmt.str "%s=%d" n l) loads))
                    total;
                  total)
            in
            let total = List.fold_left ( + ) 0 shard_loads in
            let mean = float_of_int total /. float_of_int !w.n_shards in
            let imbalance =
              if total = 0 then 1.0
              else float_of_int (List.fold_left max 0 shard_loads) /. mean
            in
            Fmt.pr "total load %d | shard imbalance (max/mean) %.2f@." total
              imbalance;
            loop ()
        | "txn" :: rest ->
            let in_footprint (reads, writes) key =
              List.mem key reads || List.mem_assoc key writes
            in
            let commit mode =
              match !txn_buf with
              | None -> Fmt.pr "txn: none open (use 'txn begin')@."
              | Some ([], []) ->
                  txn_buf := None;
                  Fmt.pr "txn: empty footprint — trivially committed@."
              | Some (rreads, rwrites) ->
                  txn_buf := None;
                  let reads = List.rev rreads
                  and writes = List.rev rwrites in
                  let co =
                    Store.Txn.create ~name:"client" ~sim:!w.sim
                      ~router:!w.router ~mode ~timeout:50.0 ~txn0:!txn_seq ()
                  in
                  run_op (fun () ->
                      (* filled before on_done can fire: a nonempty
                         footprint always resolves asynchronously *)
                      let txid = ref "" in
                      txid :=
                        Store.Txn.execute co ~reads ~writes
                          ~on_done:(fun ~committed ~reads ~writes ~latency ->
                            if committed then begin
                              Fmt.pr
                                "OK  txn %s committed (%s, %.1f time units)@."
                                !txid
                                (Store.Txn.mode_label mode)
                                latency;
                              List.iter
                                (fun (k, vn, v) ->
                                  Fmt.pr "    read  %s = %d (version %d)@." k
                                    v vn)
                                reads;
                              List.iter
                                (fun (k, vn, v) ->
                                  Fmt.pr "    wrote %s := %d (version %d)@." k
                                    v vn)
                                writes
                            end
                            else
                              Fmt.pr
                                "FAIL txn %s aborted (%s) — conflict, no \
                                 quorum, or timeout; after a proposed \
                                 decision this is ambiguous and recovery may \
                                 still commit it@."
                                !txid
                                (Store.Txn.mode_label mode))
                          ());
                  txn_seq := Store.Txn.next_txn co
            in
            (match rest with
            | [] -> (
                match !txn_buf with
                | None -> Fmt.pr "txn: none open (use 'txn begin')@."
                | Some (reads, writes) ->
                    Fmt.pr "txn: open — reads [%s], writes [%s]@."
                      (String.concat "; " (List.rev reads))
                      (String.concat "; "
                         (List.rev_map
                            (fun (k, v) -> Fmt.str "%s := %d" k v)
                            writes)))
            | [ "begin" ] -> (
                match !txn_buf with
                | Some _ ->
                    Fmt.pr "txn: already open (commit or abort it first)@."
                | None ->
                    txn_buf := Some ([], []);
                    Fmt.pr
                      "txn: open (buffering; nothing is sent until commit)@.")
            | [ "read"; key ] -> (
                match !txn_buf with
                | None -> Fmt.pr "txn: none open (use 'txn begin')@."
                | Some ((reads, writes) as buf) ->
                    if in_footprint buf key then
                      Fmt.pr "txn: %s is already in the footprint (keys must \
                              be distinct)@." key
                    else txn_buf := Some (key :: reads, writes))
            | [ "write"; key; v ] -> (
                match int_of_string_opt v with
                | None -> Fmt.pr "value must be an integer@."
                | Some value -> (
                    match !txn_buf with
                    | None -> Fmt.pr "txn: none open (use 'txn begin')@."
                    | Some ((reads, writes) as buf) ->
                        if in_footprint buf key then
                          Fmt.pr "txn: %s is already in the footprint (keys \
                                  must be distinct)@." key
                        else txn_buf := Some (reads, (key, value) :: writes)))
            | [ "abort" ] -> (
                match !txn_buf with
                | None -> Fmt.pr "txn: none open@."
                | Some _ ->
                    txn_buf := None;
                    Fmt.pr "txn: discarded (no replica was touched)@.")
            | [ "commit" ] | [ "commit"; "paxos" ] -> commit `Paxos
            | [ "commit"; "2pc" ] -> commit `Two_phase
            | _ ->
                Fmt.pr "usage: txn [begin | read KEY | write KEY INT | \
                        commit [2pc|paxos] | abort]@.");
            loop ()
        | "nemesis" :: rest ->
            (let text = String.concat " " rest in
             if String.trim text = "" then
               Fmt.pr "usage: nemesis SCRIPT, e.g. nemesis @10 crash r0; @40 \
                       recover r0@."
             else
               match Harness.Script.of_string text with
               | Error e -> Fmt.pr "invalid script: %s@." e
               | Ok script -> (
                   match
                     Harness.Script.validate ~groups:!w.groups
                       ~clients:[ "client" ] script
                   with
                   | Error e -> Fmt.pr "invalid script: %s@." e
                   | Ok () ->
                       let env =
                         {
                           Harness.Run.sim = !w.sim;
                           net = !w.net;
                           groups = !w.groups;
                           clients = [ "client" ];
                           seed = 7;
                         }
                       in
                       ignore
                         (Harness.Run.install env script : Sim.Failure.t list);
                       !w.nemesis <- !w.nemesis @ [ (Core.now !w.sim, script) ];
                       Fmt.pr "installed %d step(s) relative to t=%.1f: %a@."
                         (List.length script) (Core.now !w.sim)
                         Harness.Script.pp script));
            loop ()
        | [ "script" ] ->
            (match !w.nemesis with
            | [] -> Fmt.pr "script: none installed@."
            | installed ->
                List.iter
                  (fun (at, script) ->
                    List.iter
                      (fun step ->
                        Fmt.pr "t=%.1f  %s@." at
                          (Harness.Script.step_label step))
                      script)
                  installed);
            loop ()
        | [ "lint" ] ->
            (match lint_world !w with
            | Error e -> Fmt.pr "lint: %s@." e
            | Ok verdicts ->
                List.iter
                  (fun v -> Fmt.pr "%a@." Lint.Quorum_check.pp_verdict v)
                  verdicts;
                let ok v =
                  v.Lint.Quorum_check.legal_rw
                  && v.Lint.Quorum_check.minimize_preserves
                in
                if List.for_all ok verdicts then
                  Fmt.pr "lint: %d shard configuration%s legal@."
                    (List.length verdicts)
                    (if List.length verdicts = 1 then "" else "s")
                else Fmt.pr "lint: ILLEGAL shard configuration@.";
                (* the transaction layer's extra obligation on the
                   same live world *)
                let txn_verdicts = txn_lint !w in
                List.iter
                  (fun (s, ok) ->
                    if not ok then
                      Fmt.pr
                        "txn: shard %d has disjoint prepare (vote) quorums — \
                         two transactions could commit the same version@." s)
                  txn_verdicts;
                if List.for_all snd txn_verdicts then
                  Fmt.pr
                    "txn: prepare (vote) quorums pairwise intersect on every \
                     shard — decided-version uniqueness holds@.");
            loop ()
        | [ "tune" ] ->
            (* side-effect-free peek: the sample feed (and `top`'s
               window pruning) stays untouched *)
            let snaps = Obs.Health.peek !w.health ~at:(Core.now !w.sim) in
            List.iter
              (fun (snap : Obs.Health.snapshot) ->
                let s = snap.Obs.Health.shard in
                let current = Store.Router.strategy !w.router ~shard:s in
                let live = not (Float.is_nan snap.Obs.Health.read_fraction) in
                let rf =
                  if live then snap.Obs.Health.read_fraction else 0.9
                in
                Fmt.pr "shard %d: strategy %s (epoch %d) | read fraction %s \
                        (%d ops in window)@."
                  s current.Store.Strategy.name
                  (Store.Router.epoch !w.router ~shard:s)
                  (if live then Fmt.str "%.2f" rf else "0.90 (assumed — no ops)")
                  snap.Obs.Health.ops;
                match
                  Store.Autotune.choose ~read_fraction:rf
                    ~lat:(Store.Ewma.value !w.ewmas.(s))
                    replicas_per_shard
                with
                | None -> Fmt.pr "  optimizer: no admissible candidate@."
                | Some { Store.Autotune.strategy; score } ->
                    Fmt.pr "  optimizer picks %s%s@."
                      strategy.Store.Strategy.name
                      (if
                         String.equal strategy.Store.Strategy.name
                           current.Store.Strategy.name
                       then " (keep)"
                       else " (switch)");
                    Fmt.pr "  predicted %a@." Store.Autotune.pp_score score)
              snaps;
            loop ()
        | [ "metrics" ] ->
            Fmt.pr "%s%!" (Obs.Metrics.dump !w.metrics);
            loop ()
        | [ "trace"; path ] ->
            (try
               Obs.Export.write_chrome path !w.tracer;
               Fmt.pr "wrote %d trace events to %s (open in chrome://tracing \
                       or ui.perfetto.dev)@."
                 (Obs.Trace.length !w.tracer) path
             with Sys_error e -> Fmt.pr "cannot write trace: %s@." e);
            loop ()
        | [ "stats" ] ->
            let sum f =
              Array.fold_left
                (fun acc c -> acc + Obs.Metrics.value (f c))
                0
                (Store.Router.clients !w.router)
            in
            let c = Net.counters !w.net in
            let fsyncs =
              List.fold_left
                (fun acc r -> acc + Store.Replica.fsyncs r)
                0 !w.replicas
            in
            Fmt.pr "ops ok=%d failed=%d repairs=%d | msgs sent=%d delivered=%d \
                    dropped=%d (sender_down=%d dest_down=%d link_cut=%d \
                    loss=%d) | fsyncs=%d | sim time %.1f@."
              (sum (fun c -> c.Store.Client.ops_ok))
              (sum (fun c -> c.Store.Client.ops_failed))
              (sum (fun c -> c.Store.Client.repairs_sent))
              c.Net.sent c.delivered c.dropped c.drop_sender_down
              c.drop_dest_down c.drop_link_cut c.drop_loss fsyncs
              (Core.now !w.sim);
            loop ()
        | _ ->
            Fmt.pr "unknown command (try 'help')@.";
            loop ())
  in
  loop ()
