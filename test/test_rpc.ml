(* Tests for the shared replication RPC engine (lib/rpc): the
   quorum-gather combinator, pending-table hygiene, bounded retries
   with deterministic backoff, hedged requests, and the store-level
   properties the engine exists for — higher success under loss and a
   clean consistency audit under partitions with retries and hedging
   enabled. *)

module Core = Sim.Core
module Net = Sim.Net
module Engine = Rpc.Engine
module Policy = Rpc.Policy
module Window = Rpc.Window

(* ---------- a minimal echo protocol over Sim.Net ---------- *)

type msg = Req of int | Rep of int | Batch of int * msg list

let rid_of = function Req r | Rep r | Batch (r, _) -> r
let servers = List.init 5 (fun i -> Fmt.str "s%d" i)

let make_world ~seed ?policy ?(loss = 0.0) ?latency () =
  let sim = Core.create ~seed in
  let net = Net.create ~sim ~nodes:("c" :: servers) ?latency ~loss () in
  List.iter
    (fun s ->
      Net.register net ~node:s (fun ~src msg ->
          match msg with
          | Req r -> Net.send net ~src:s ~dst:src (Rep r)
          | Batch (r, parts) ->
              Net.send net ~src:s ~dst:src
                (Batch
                   ( r,
                     List.filter_map
                       (function Req p -> Some (Rep p) | _ -> None)
                       parts ))
          | Rep _ -> ()))
    servers;
  let eng = Engine.create ~name:"c" ~sim ~net ~rid_of ?policy () in
  Engine.attach eng;
  (sim, net, eng)

(* One operation gathering [k] replies; resolves to `Ok completion
   time or `Timeout (deadline). *)
let gather ~sim ~eng ~k ~timeout ?first () =
  let outcome = ref `Pending in
  let op_ref = ref None in
  let op =
    Engine.start_op eng ~timeout ~on_timeout:(fun () ->
        (match !op_ref with
        | Some op -> Engine.finish_op eng op
        | None -> ());
        outcome := `Timeout)
  in
  op_ref := Some op;
  let got = ref 0 in
  ignore
    (Engine.call eng ~op ~targets:(Engine.group eng (Array.of_list servers)) ?first
       ~make:(fun rid -> Req rid)
       ~on_reply:(fun ~member:_ ~heard:_ _ ->
         incr got;
         if !got >= k then begin
           Engine.finish_op eng op;
           outcome := `Ok (Core.now sim);
           Engine.Done
         end
         else Engine.Continue)
       ());
  outcome

(* ---------- fire-once basics ---------- *)

let test_fire_once_quorum () =
  let sim, _net, eng = make_world ~seed:3 () in
  let outcome = gather ~sim ~eng ~k:3 ~timeout:50.0 () in
  Core.run sim;
  (match !outcome with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "expected quorum of echo replies");
  Alcotest.(check int) "pending table drained" 0 (Engine.pending_count eng)

let test_deadline_cleans_pending () =
  let sim, net, eng = make_world ~seed:4 () in
  List.iter (Net.crash net) servers;
  let outcome = gather ~sim ~eng ~k:3 ~timeout:50.0 () in
  Core.run sim;
  (match !outcome with
  | `Timeout -> ()
  | _ -> Alcotest.fail "expected deadline timeout");
  Alcotest.(check int)
    "pending table drained after timeout" 0
    (Engine.pending_count eng)

(* A finished op cancels its timers, so it leaves nothing in the event
   queue and the run ends at the completion — with the deadline, the
   attempt timer, the retry timer or the hedge timer still ahead of
   it.  Latency is a fixed [l], so the one reply lands at t = 2l: at 6
   for l = 3, before the attempt times out at 25; at 26 for l = 13,
   while the retry waits its backoff (due at 29 to 31). *)
let test_finished_op_leaves_no_event () =
  List.iter
    (fun (label, policy, l) ->
      let sim, _net, eng =
        make_world ~seed:6 ~policy
          ~latency:(Net.uniform_latency ~lo:l ~hi:l)
          ()
      in
      let outcome = gather ~sim ~eng ~k:1 ~first:0b1 ~timeout:1000.0 () in
      Core.run sim;
      match !outcome with
      | `Ok t ->
          Alcotest.(check (float 0.0)) (label ^ ": completed") (2.0 *. l) t;
          Alcotest.(check (float 0.0))
            (label ^ ": the run ends at the completion") t (Core.now sim);
          Alcotest.(check int) (label ^ ": nothing pending") 0
            (Core.pending sim)
      | _ -> Alcotest.fail (label ^ ": expected a reply"))
    [
      ("deadline", Policy.default, 3.0);
      ("attempt timer", Policy.with_retries 2, 3.0);
      ("retry timer", Policy.with_retries 2, 13.0);
      ("hedge timer", Policy.with_hedge 50.0, 3.0);
    ]

(* ---------- retries ---------- *)

(* The time the call runs out of attempts: its last attempt span ends
   with outcome "exhausted".  The op itself then waits for its
   deadline. *)
let exhaust_time seed =
  let sim, net, eng = make_world ~seed ~policy:(Policy.with_retries 2) () in
  let tr = Obs.Trace.create () in
  Core.attach_tracer sim tr;
  List.iter (Net.crash net) servers;
  let outcome = gather ~sim ~eng ~k:3 ~timeout:1000.0 () in
  Core.run sim;
  Alcotest.(check int) "pending drained" 0 (Engine.pending_count eng);
  Alcotest.(check bool) "the op ends at its deadline" true (!outcome = `Timeout);
  let exhausted (e : Obs.Trace.event) =
    e.ph = Obs.Trace.E
    && List.assoc_opt "outcome" e.args = Some (Obs.Trace.Str "exhausted")
  in
  match List.filter exhausted (Obs.Trace.events tr) with
  | [ e ] -> e.ts
  | _ -> Alcotest.fail "expected exhaustion after max retries"

let test_no_quorum_exhausts_deterministically () =
  (* with no server ever reachable the op fails when attempts run out
     (well before the 1000-unit deadline), at the same virtual time on
     every run of the same seed — jittered backoff comes from the
     engine's own seeded PRNG *)
  let t1 = exhaust_time 7 and t2 = exhaust_time 7 in
  Alcotest.(check (float 0.0)) "same seed, same exhaustion time" t1 t2;
  Alcotest.(check bool) "exhausted before the operation deadline" true
    (t1 < 1000.0)

let test_retry_succeeds_after_heal () =
  (* 3 of 5 servers down: no 3-quorum until s2 recovers at t=25; a
     fire-once call misses it, a retrying call resends and completes *)
  let attempt policy =
    let sim, net, eng = make_world ~seed:9 ?policy () in
    List.iter (Net.crash net) [ "s0"; "s1"; "s2" ];
    Core.schedule sim ~delay:25.0 (fun () -> Net.recover net "s2");
    let outcome = gather ~sim ~eng ~k:3 ~timeout:200.0 () in
    Core.run sim;
    Alcotest.(check int) "pending drained" 0 (Engine.pending_count eng);
    !outcome
  in
  (match attempt None with
  | `Timeout -> ()
  | _ -> Alcotest.fail "fire-once should miss the healed server");
  match attempt (Some (Policy.with_retries 3)) with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "retries should reach the healed server"

(* ---------- hedging ---------- *)

let test_hedge_falls_back () =
  (* a first wave of s0 alone, which is down: without hedging the call
     stalls to the deadline; with a hedge delay the request fans out
     to the rest and completes *)
  let attempt policy =
    let sim, net, eng = make_world ~seed:5 ?policy () in
    Net.crash net "s0";
    let outcome = gather ~sim ~eng ~k:1 ~timeout:60.0 ~first:0b1 () in
    Core.run sim;
    !outcome
  in
  (match attempt None with
  | `Timeout -> ()
  | _ -> Alcotest.fail "a fire-once wave to one dead server should stall");
  match attempt (Some (Policy.with_hedge 5.0)) with
  | `Ok t ->
      Alcotest.(check bool) "hedged completion is prompt" true (t < 60.0)
  | _ -> Alcotest.fail "hedge should fall back to the live servers"

(* The send order is part of the engine's contract: it fixes every
   seeded run's network draws.  A call over five servers with first
   wave {s1, s3}, a hedge at t = 5 and its one retry after the attempt
   times out at t = 25 and backs off 4 to 6: the
   first wave goes out in ascending order, the hedge sends the rest in
   ascending order, and the retry resends only the unheard members,
   first-wave ones first.  s3 answers every request twice and both
   copies reach [on_reply]; s2 answers once; s0, s1 and s4 never
   answer.  Latency is a fixed 1 each way, so arrival order is send
   order. *)
let test_send_order_pinned () =
  let sim = Core.create ~seed:1 in
  let net =
    Net.create ~sim ~nodes:("c" :: servers)
      ~latency:(Net.uniform_latency ~lo:1.0 ~hi:1.0)
      ()
  in
  let received = ref [] in
  List.iter
    (fun s ->
      Net.register net ~node:s (fun ~src msg ->
          match msg with
          | Req r ->
              received := s :: !received;
              let answers =
                match s with "s3" -> 2 | "s2" -> 1 | _ -> 0
              in
              for _ = 1 to answers do
                Net.send net ~src:s ~dst:src (Rep r)
              done
          | _ -> ()))
    servers;
  let policy = Policy.with_hedge ~base:(Policy.with_retries 1) 5.0 in
  let eng = Engine.create ~name:"c" ~sim ~net ~rid_of ~policy () in
  Engine.attach eng;
  let op_ref = ref None in
  let op =
    Engine.start_op eng ~timeout:1000.0 ~on_timeout:(fun () ->
        Option.iter (Engine.finish_op eng) !op_ref)
  in
  op_ref := Some op;
  let replies = ref [] in
  ignore
    (Engine.call eng ~op ~targets:(Engine.group eng (Array.of_list servers)) ~first:0b01010
       ~make:(fun rid -> Req rid)
       ~on_reply:(fun ~member ~heard _ ->
         replies := (member, heard) :: !replies;
         Engine.Continue)
       ());
  Core.run sim;
  Alcotest.(check (list string))
    "first wave, hedge, retry of the unheard"
    [ "s1"; "s3"; "s0"; "s2"; "s4"; "s1"; "s0"; "s4" ]
    (List.rev !received);
  Alcotest.(check (list (pair int int)))
    "every reply reaches on_reply, duplicates included, with the set \
     heard before it"
    [ (3, 0b00000); (3, 0b01000); (2, 0b01000) ]
    (List.rev !replies);
  Alcotest.(check int) "pending drained" 0 (Engine.pending_count eng)

(* A reply is matched to a member by its sender's node id: replies from
   a node outside the group — a server the call never addressed, sent
   over the network or handed over by id or by name — reach no
   [on_reply]. *)
(* More than 64 calls open at once, closed out of order, one rid
   reused while its first call is still open, and replies to closed and
   never-issued rids.  Dispatch follows a model of the pending table:
   the latest call registered under a rid owns it until that call
   closes, and a reply reaches the owner only while it is live. *)
let test_many_open_calls () =
  let sim = Core.create ~seed:9 in
  let net = Net.create ~sim ~nodes:("c" :: servers) () in
  List.iter (fun s -> Net.register net ~node:s (fun ~src:_ _ -> ())) servers;
  let eng = Engine.create ~name:"c" ~sim ~net ~rid_of () in
  let targets = Engine.group eng (Array.of_list servers) in
  let n = 100 in
  (* calls 0 .. n-1 take fresh rids; call n reuses call 10's *)
  let ops = Array.make (n + 1) None and rids = Array.make (n + 1) 0 in
  let live = Array.make (n + 1) true and heard = Array.make (n + 1) 0 in
  let owner = Hashtbl.create 16 in
  let got = ref [] and want = ref [] in
  let open_call i ?rid () =
    let op = Engine.start_op eng ~timeout:1e9 ~on_timeout:ignore in
    ops.(i) <- Some op;
    rids.(i) <-
      Engine.call eng ~op ?rid ~targets ~first:0b1
        ~make:(fun rid -> Req rid)
        ~on_reply:(fun ~member ~heard _ ->
          got := (i, member, heard) :: !got;
          Engine.Continue)
        ();
    Hashtbl.replace owner rids.(i) i
  in
  for i = 0 to n - 1 do
    open_call i ()
  done;
  open_call n ~rid:rids.(10) ();
  Alcotest.(check int) "rid reused" rids.(10) rids.(n);
  let reply rid member =
    (match Hashtbl.find_opt owner rid with
    | Some i when live.(i) ->
        want := (i, member, heard.(i)) :: !want;
        heard.(i) <- heard.(i) lor (1 lsl member)
    | _ -> ());
    Engine.handle eng ~src:(List.nth servers member) (Rep rid)
  in
  let close i =
    Engine.finish_op eng (Option.get ops.(i));
    live.(i) <- false;
    if Hashtbl.find_opt owner rids.(i) = Some i then
      Hashtbl.remove owner rids.(i)
  in
  for j = 0 to n do
    reply rids.(j * 37 mod (n + 1)) (j mod 5)
  done;
  Alcotest.(check int) "open calls" n (Engine.pending_count eng);
  for j = 0 to n do
    let i = j * 59 mod (n + 1) in
    close i;
    reply rids.(i) 1;
    reply rids.(j * 13 mod (n + 1)) (j mod 3);
    reply (10_000 + j) 0;
    Alcotest.(check int)
      (Fmt.str "pending after closing call %d" i)
      (Hashtbl.length owner)
      (Engine.pending_count eng)
  done;
  Alcotest.(check int) "drained" 0 (Engine.pending_count eng);
  Alcotest.(check bool) "replies dispatched" true (List.length !want > n);
  Alcotest.(check (list (triple int int int)))
    "dispatch follows the model" (List.rev !want) (List.rev !got)

let test_non_member_reply_ignored () =
  let sim, net, eng = make_world ~seed:1 () in
  let op_ref = ref None in
  let op =
    Engine.start_op eng ~timeout:50.0 ~on_timeout:(fun () ->
        Option.iter (Engine.finish_op eng) !op_ref)
  in
  op_ref := Some op;
  let group = Engine.group eng [| "s0"; "s1" |] in
  Alcotest.(check (array int)) "group ids" [| Net.id net "s0"; Net.id net "s1" |]
    (Engine.group_ids group);
  let replies = ref [] in
  let rid =
    Engine.call eng ~op ~targets:group
      ~make:(fun rid -> Req rid)
      ~on_reply:(fun ~member ~heard:_ _ ->
        replies := member :: !replies;
        Engine.Continue)
      ()
  in
  Engine.handle_id eng ~src:(Net.id net "s3") (Rep rid);
  Engine.handle eng ~src:"s2" (Rep rid);
  Net.send net ~src:"s4" ~dst:"c" (Rep rid);
  Core.run sim;
  Alcotest.(check (list int)) "only the members' replies" [ 0; 1 ]
    (List.sort compare !replies);
  Alcotest.(check int) "pending drained" 0 (Engine.pending_count eng)

(* ---------- policy validation ---------- *)

let test_policy_validation () =
  let bad p = Alcotest.(check bool) "rejected" true (Result.is_error p) in
  bad (Policy.validate { Policy.default with Policy.max_attempts = 0 });
  bad (Policy.validate { Policy.default with Policy.backoff = -1.0 });
  bad (Policy.validate { Policy.default with Policy.hedge_delay = Some 0.0 });
  Alcotest.(check bool) "default valid" true
    (Result.is_ok (Policy.validate Policy.default));
  Alcotest.(check bool) "with_retries valid" true
    (Result.is_ok (Policy.validate (Policy.with_retries 4)));
  Alcotest.check_raises "Engine.create rejects an invalid policy"
    (Invalid_argument
       "Rpc.Engine: invalid policy: max_attempts must be >= 1 (got 0)")
    (fun () ->
      let sim = Core.create ~seed:1 in
      let net = Net.create ~sim ~nodes:[ "c" ] () in
      ignore
        (Engine.create ~name:"c" ~sim ~net ~rid_of
           ~policy:{ Policy.default with Policy.max_attempts = 0 }
           ()));
  (* a call's group must fit in an int mask *)
  let _sim, _net, eng = make_world ~seed:1 () in
  let op = Engine.start_op eng ~timeout:10.0 ~on_timeout:(fun () -> ()) in
  let call n =
    Engine.call eng ~op ~targets:(Engine.group eng (Array.make n "s0"))
      ~make:(fun rid -> Req rid)
      ~on_reply:(fun ~member:_ ~heard:_ _ -> Engine.Done)
      ()
  in
  ignore (call Engine.max_group : int);
  Alcotest.check_raises "Engine.call rejects a group wider than a mask"
    (Invalid_argument
       (Fmt.str "Rpc.Engine.call: %d targets, more than a %d-bit mask holds"
          (Engine.max_group + 1) Engine.max_group))
    (fun () -> ignore (call (Engine.max_group + 1) : int))

let prop_retry_delay_bounds =
  QCheck.Test.make ~count:200 ~name:"retry_delay stays within jitter bounds"
    QCheck.(pair (int_range 2 8) (float_bound_exclusive 1.0))
    (fun (attempt, u) ->
      let p = Policy.with_retries 7 in
      let d = Policy.retry_delay p ~attempt ~u in
      let base = 5.0 *. (2.0 ** float_of_int (attempt - 2)) in
      d >= base *. 0.8 -. 1e-9 && d <= base *. 1.2 +. 1e-9)

(* ---------- batching: mid-flight disable ---------- *)

let echo_hooks =
  {
    Engine.wrap = (fun ~rid parts -> Batch (rid, parts));
    unwrap = (function Batch (_, parts) -> Some parts | _ -> None);
  }

(* the hooks under a window pinned at [window] *)
let echo_batching ~window = (echo_hooks, Window.create (Window.fixed window))

let test_disable_batching_mid_flight () =
  (* two ops queue their sends under a window far beyond the op
     timeout; disabling batching before the flush timer fires must
     send them immediately (unwrapped) — stranding them until the
     armed timer would time both ops out *)
  let sim, _net, eng = make_world ~seed:11 () in
  Engine.set_batching eng (Some (echo_batching ~window:100.0));
  let o1 = gather ~sim ~eng ~k:3 ~timeout:50.0 () in
  let o2 = gather ~sim ~eng ~k:3 ~timeout:50.0 () in
  Core.schedule sim ~delay:5.0 (fun () -> Engine.set_batching eng None);
  Core.run sim;
  (match (!o1, !o2) with
  | `Ok t1, `Ok t2 ->
      Alcotest.(check bool)
        (Fmt.str "completions are prompt (%.1f, %.1f)" t1 t2)
        true
        (t1 < 50.0 && t2 < 50.0)
  | _ -> Alcotest.fail "both pending ops must complete after the disable");
  Alcotest.(check int) "pending table drained" 0 (Engine.pending_count eng);
  (* and batch replies still in flight complete after a disable: queue
     under a short window, disable after the flush but before the
     replies land *)
  let sim, _net, eng = make_world ~seed:12 () in
  Engine.set_batching eng (Some (echo_batching ~window:1.0));
  let o3 = gather ~sim ~eng ~k:3 ~timeout:50.0 () in
  let o4 = gather ~sim ~eng ~k:3 ~timeout:50.0 () in
  (* the flush fires at t=1; replies are in flight by t=1.5 *)
  Core.schedule sim ~delay:1.5 (fun () -> Engine.set_batching eng None);
  Core.run sim;
  (match (!o3, !o4) with
  | `Ok _, `Ok _ -> ()
  | _ -> Alcotest.fail "in-flight batch replies must still unwrap");
  Alcotest.(check int) "pending table drained" 0 (Engine.pending_count eng)

(* ---------- batching: the flush timer ---------- *)

(* A world whose sends all take exactly one time unit, and whose
   servers only record what reaches them: (server id, message,
   payloads, arrival time), newest first.  Equal latencies keep
   arrival order equal to send order. *)
let recording_world () =
  let sim = Core.create ~seed:5 in
  let net =
    Net.create ~sim ~nodes:("c" :: servers)
      ~latency:(Net.uniform_latency ~lo:1.0 ~hi:1.0)
      ()
  in
  let log = ref [] in
  let seen = ref 0 in
  List.iter
    (fun s ->
      let id = Net.id net s in
      Net.register_id net ~node:id (fun ~src:_ msg ->
          let p = (Net.counters net).Net.payload_delivered in
          log := (id, msg, p - !seen, Core.now sim) :: !log;
          seen := p))
    servers;
  let metrics = Obs.Metrics.create () in
  let eng = Engine.create ~name:"c" ~sim ~net ~rid_of ~metrics () in
  (sim, net, eng, metrics, log)

(* one call to the members of [mask], under an op that only times out *)
let send_masked ~eng ~group mask =
  let op = ref None in
  let o =
    Engine.start_op eng ~timeout:500.0 ~on_timeout:(fun () ->
        Option.iter (Engine.finish_op eng) !op)
  in
  op := Some o;
  Engine.call eng ~op:o ~targets:group ~first:mask
    ~make:(fun rid -> Req rid)
    ~on_reply:(fun ~member:_ ~heard:_ _ -> Engine.Continue)
    ()

let test_reenabled_batching_waits_its_window () =
  (* disabling batching flushes the queue; the flush timer armed
     before must not survive to send a later queue before that queue's
     own window ends *)
  let sim, _net, eng, _m, log = recording_world () in
  let group = Engine.group eng (Array.of_list servers) in
  Engine.set_batching eng (Some (echo_batching ~window:100.0));
  ignore (send_masked ~eng ~group 1 : int);
  Core.schedule sim ~delay:5.0 (fun () -> Engine.set_batching eng None);
  Core.schedule sim ~delay:10.0 (fun () ->
      Engine.set_batching eng (Some (echo_batching ~window:100.0)));
  Core.schedule sim ~delay:11.0 (fun () ->
      ignore (send_masked ~eng ~group 1 : int);
      ignore (send_masked ~eng ~group 1 : int));
  Core.run sim;
  match List.rev !log with
  | [ (_, Req 0, 1, t0); (_, Batch (3, [ Req 1; Req 2 ]), 2, t1) ] ->
      Alcotest.(check (float 1e-9)) "the disable flushed at once" 6.0 t0;
      Alcotest.(check (float 1e-9)) "the new queue left after its window"
        112.0 t1
  | l -> Alcotest.failf "unexpected deliveries (%d)" (List.length l)

(* A reference copy of the flush as it was first written, over the
   queue in enqueue order: group per destination in first-appearance
   order, one frame per destination (a single part unwrapped), frame
   rids allocated from [next] in that order.  Returns the frames as
   (dst, message, payloads), the [rpc.batch_size] observations, the
   peak frame size (which the window controller, and the [rpc.window]
   gauge after it, must follow) and the next free rid.  With batching
   off every queued send leaves alone, in enqueue order. *)
let reference_flush ~batching ~next queued =
  if not batching then
    (List.map (fun (dst, m) -> (dst, m, 1)) queued,
     List.map (fun _ -> 1.0) queued,
     None,
     next)
  else begin
    let order = ref [] in
    let by_dst = Hashtbl.create 8 in
    List.iter
      (fun (dst, m) ->
        match Hashtbl.find_opt by_dst dst with
        | Some l -> l := m :: !l
        | None ->
            Hashtbl.replace by_dst dst (ref [ m ]);
            order := dst :: !order)
      queued;
    let next = ref next and peak = ref 0 in
    let frames, obs =
      List.split
        (List.map
           (fun dst ->
             let ms = List.rev !(Hashtbl.find by_dst dst) in
             let n = List.length ms in
             peak := max !peak n;
             let frame =
               match ms with
               | [ m ] -> (dst, m, 1)
               | ms ->
                   let rid = !next in
                   incr next;
                   (dst, Batch (rid, ms), n)
             in
             (frame, float_of_int n))
           (List.rev !order))
    in
    (frames, obs, (if queued = [] then None else Some !peak), !next)
  end

type round = Off | On | On_then_off

let prop_flush_matches_reference =
  let round =
    QCheck.(
      pair
        (oneofl [ Off; On; On; On_then_off ])
        (list_of_size Gen.(1 -- 14) (int_range 1 31)))
  in
  QCheck.Test.make ~count:150
    ~name:"flush sends the frames, rids and sizes of the reference flush"
    QCheck.(pair bool (list_of_size Gen.(1 -- 6) round))
    (fun (adaptive, rounds) ->
      let sim, _net, eng, metrics, log = recording_world () in
      let group = Engine.group eng (Array.of_list servers) in
      let ids = Engine.group_ids group in
      let wcfg =
        if adaptive then Window.default_config else Window.fixed 0.5
      in
      let wctl = Window.create wcfg and model_w = Window.create wcfg in
      let b = (echo_hooks, wctl) in
      let next = ref 0 in
      let buckets = [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |] in
      let hist () =
        Obs.Metrics.histogram metrics ~labels:[ ("client", "c") ] ~buckets
          "rpc.batch_size"
      in
      let gauge () =
        Obs.Metrics.gauge metrics ~labels:[ ("client", "c") ] "rpc.window"
      in
      let model_h =
        Obs.Metrics.histogram (Obs.Metrics.create ()) ~buckets "model"
      in
      List.for_all
        (fun (kind, masks) ->
          log := [];
          Engine.set_batching eng (if kind = Off then None else Some b);
          let queued =
            List.concat_map
              (fun mask ->
                let rid = send_masked ~eng ~group mask in
                assert (rid = !next);
                incr next;
                List.filter_map
                  (fun i ->
                    if mask land (1 lsl i) <> 0 then Some (ids.(i), Req rid)
                    else None)
                  [ 0; 1; 2; 3; 4 ])
              masks
          in
          if kind = On_then_off then Engine.set_batching eng None;
          Core.run sim;
          let frames, o, peak, next' =
            reference_flush ~batching:(kind = On) ~next:!next queued
          in
          next := next';
          if kind <> Off then List.iter (Obs.Metrics.observe model_h) o;
          (match (kind, peak) with
          | On, Some p -> Window.observe model_w ~peak:p
          | _ -> ());
          let h = hist () in
          let sent = List.rev_map (fun (d, m, p, _) -> (d, m, p)) !log in
          sent = frames
          && (kind = Off
             || Obs.Metrics.hist_count h = Obs.Metrics.hist_count model_h
                && Obs.Metrics.hist_sum h = Obs.Metrics.hist_sum model_h
                && Obs.Metrics.bucket_counts h
                   = Obs.Metrics.bucket_counts model_h
                && Obs.Metrics.gauge_value (gauge ()) = Window.window wctl)
          && Window.window wctl = Window.window model_w
          && Engine.fresh_rid eng = !next
          && (incr next; true))
        rounds)

(* ---------- determinism with retries + loss ---------- *)

let lossy_retry_run seed =
  let sim, _net, eng =
    make_world ~seed ~policy:(Policy.with_retries 2) ~loss:0.3 ()
  in
  let results = ref [] in
  let rec issue n =
    if n > 0 then
      Core.schedule sim ~delay:5.0 (fun () ->
          let outcome = gather ~sim ~eng ~k:3 ~timeout:80.0 () in
          Core.schedule sim ~delay:81.0 (fun () ->
              results :=
                (match !outcome with
                | `Ok t -> Fmt.str "ok@%g" t
                | `Timeout -> "timeout"
                | `Pending -> "pending")
                :: !results;
              issue (n - 1)))
  in
  issue 10;
  Core.run sim;
  (!results, Core.now sim, Engine.pending_count eng)

let test_lossy_retry_deterministic () =
  let r1, t1, p1 = lossy_retry_run 21 in
  let r2, t2, p2 = lossy_retry_run 21 in
  Alcotest.(check (list string)) "same outcomes" r1 r2;
  Alcotest.(check (float 0.0)) "same duration" t1 t2;
  Alcotest.(check int) "pending drained" 0 p1;
  Alcotest.(check int) "pending drained" 0 p2

(* ---------- store-level: the engine under the quorum client ---------- *)

let store_replicas = List.init 5 (fun i -> Fmt.str "r%d" i)

let test_store_client_pending_hygiene () =
  (* every replica down: the write times out; nothing may leak from
     the engine's pending table, and the client still answers *)
  let sim = Core.create ~seed:6 in
  let net = Net.create ~sim ~nodes:("c0" :: store_replicas) () in
  let replicas =
    List.map (fun name -> Store.Replica.create ~name ()) store_replicas
  in
  List.iter (fun r -> Store.Replica.attach r ~net) replicas;
  let client =
    Store.Client.create ~name:"c0" ~sim ~net
      ~replicas:(Array.of_list store_replicas)
      ~strategy:(Store.Strategy.majority 5) ~timeout:40.0 ()
  in
  Store.Client.attach client;
  let failed = ref 0 and ok = ref 0 in
  Store.Client.write client ~key:"k" ~value:1
    ~on_done:(fun ~ok:o ~vn:_ ~value:_ ~latency:_ ->
      incr (if o then ok else failed));
  Core.run sim;
  List.iter (Net.crash net) store_replicas;
  Store.Client.write client ~key:"k" ~value:2
    ~on_done:(fun ~ok:o ~vn:_ ~value:_ ~latency:_ ->
      incr (if o then ok else failed));
  Core.run sim;
  Alcotest.(check int) "first write ok" 1 !ok;
  Alcotest.(check int) "second write failed" 1 !failed;
  Alcotest.(check int) "engine pending drained" 0
    (Engine.pending_count client.Store.Client.eng)

let test_retries_raise_availability_under_loss () =
  let run policy =
    Store.Cluster.run
      {
        Store.Cluster.default_params with
        targeting = `Quorum;
        policy;
        loss = 0.3;
        workload =
          { Store.Workload.default_spec with ops_per_client = 80; read_fraction = 0.5 };
        seed = 77;
      }
  in
  let base = run Policy.default in
  let retried = run (Policy.with_retries 2) in
  Alcotest.(check bool) "audit clean (fire-once)" true
    (base.Store.Cluster.audit_violations = []);
  Alcotest.(check bool) "audit clean (retries)" true
    (retried.Store.Cluster.audit_violations = []);
  Alcotest.(check bool)
    (Fmt.str "retries improve success rate (%.3f -> %.3f)"
       (Store.Cluster.availability base)
       (Store.Cluster.availability retried))
    true
    (Store.Cluster.availability retried > Store.Cluster.availability base)

let prop_nemesis_partitions_with_retries_audit_clean =
  QCheck.Test.make ~count:8
    ~name:"nemesis partitions + retries + hedging keep the audit clean"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let r =
        Store.Cluster.run
          {
            Store.Cluster.default_params with
            targeting = `Quorum;
            policy = Policy.with_hedge ~base:(Policy.with_retries 2) 12.0;
            (* the partition storm as a harness script — compiles onto
               the identical legacy code path (same PRNG, same digest) *)
            script = Harness.Script.of_partitions 150.0;
            workload =
              { Store.Workload.default_spec with ops_per_client = 60; read_fraction = 0.5 };
            seed;
          }
      in
      match r.Store.Cluster.audit_violations with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_report v)

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "rpc.engine",
      [
        Alcotest.test_case "fire-once quorum gather" `Quick test_fire_once_quorum;
        Alcotest.test_case "a finished op leaves no event" `Quick
          test_finished_op_leaves_no_event;
        Alcotest.test_case "deadline cleans pending" `Quick
          test_deadline_cleans_pending;
        Alcotest.test_case "no quorum: deterministic exhaustion" `Quick
          test_no_quorum_exhausts_deterministically;
        Alcotest.test_case "retry succeeds after heal" `Quick
          test_retry_succeeds_after_heal;
        Alcotest.test_case "hedge falls back past a dead server" `Quick
          test_hedge_falls_back;
        Alcotest.test_case "send order is pinned" `Quick test_send_order_pinned;
        Alcotest.test_case "a non-member's reply is ignored" `Quick
          test_non_member_reply_ignored;
        Alcotest.test_case "over 64 open calls, stale and reused rids" `Quick
          test_many_open_calls;
        Alcotest.test_case "policy validation" `Quick test_policy_validation;
        Alcotest.test_case "disabling batching mid-flight flushes the queue"
          `Quick test_disable_batching_mid_flight;
        Alcotest.test_case "re-enabled batching waits its own window" `Quick
          test_reenabled_batching_waits_its_window;
        qcheck prop_flush_matches_reference;
        qcheck prop_retry_delay_bounds;
        Alcotest.test_case "lossy retries are seed-deterministic" `Quick
          test_lossy_retry_deterministic;
      ] );
    ( "rpc.store",
      [
        Alcotest.test_case "pending hygiene through the store client" `Quick
          test_store_client_pending_hygiene;
        Alcotest.test_case "retries raise availability under loss" `Slow
          test_retries_raise_availability_under_loss;
        qcheck prop_nemesis_partitions_with_retries_audit_clean;
      ] );
  ]
