//! End-to-end BMOC detection tests on the paper's figures and on correct
//! programs that must stay clean.

use gcatch::{AnalysisSession, BugKind, DetectorConfig};

fn detect(src: &str) -> Vec<gcatch::BugReport> {
    let module = golite_ir::lower_source(src).expect("lowering");
    let detector = AnalysisSession::new(&module);
    detector.detect_bmoc(&DetectorConfig::default())
}

const FIGURE1: &str = r#"
func StdCopy() error {
    return nil
}

func Exec(ctx context.Context) error {
    outDone := make(chan error)
    go func() {
        err := StdCopy()
        outDone <- err
    }()
    select {
    case err := <-outDone:
        if err != nil {
            return err
        }
    case <-ctx.Done():
        return ctx.Err()
    }
    return nil
}

func main() {
    ctx, cancel := context.WithCancel(context.Background())
    defer cancel()
    Exec(ctx)
}
"#;

#[test]
fn detects_figure1_docker_bug() {
    let bugs = detect(FIGURE1);
    let bmoc: Vec<_> = bugs
        .iter()
        .filter(|b| b.kind == BugKind::BmocChannel)
        .collect();
    assert!(
        bmoc.iter().any(|b| b.primitive_name == "outDone"
            && b.ops.iter().any(|o| o.what.contains("send on outDone"))),
        "must report the child's send on outDone as blocking; got: {bugs:?}"
    );
}

#[test]
fn figure1_patch_is_clean() {
    let fixed = FIGURE1.replace("make(chan error)", "make(chan error, 1)");
    let bugs = detect(&fixed);
    assert!(
        bugs.iter().all(|b| b.primitive_name != "outDone"),
        "buffered outDone can always take the send; got: {bugs:?}"
    );
}

#[test]
fn detects_figure3_etcd_bug() {
    // Missing-interaction: t.Fatalf skips the final send.
    let src = r#"
func Start(stop chan struct{}) {
    <-stop
}

func Dial() (int, error) {
    return 0, Failure()
}

func Failure() error {
    return nil
}

func TestRWDialer(t *testing.T) {
    stop := make(chan struct{})
    go Start(stop)
    conn, err := Dial()
    _ = conn
    if err != nil {
        t.Fatalf("dial failed")
    }
    stop <- struct{}{}
}
"#;
    let bugs = detect(src);
    assert!(
        bugs.iter().any(|b| b.kind == BugKind::BmocChannel
            && b.primitive_name == "stop"
            && b.ops.iter().any(|o| o.what.contains("recv from stop"))),
        "must report the child's receive on stop as blocking; got: {bugs:?}"
    );
}

#[test]
fn figure3_defer_patch_is_clean() {
    let src = r#"
func Start(stop chan struct{}) {
    <-stop
}

func Dial() (int, error) {
    return 0, Failure()
}

func Failure() error {
    return nil
}

func TestRWDialer(t *testing.T) {
    stop := make(chan struct{})
    defer func() {
        stop <- struct{}{}
    }()
    go Start(stop)
    conn, err := Dial()
    _ = conn
    if err != nil {
        t.Fatalf("dial failed")
    }
}
"#;
    let bugs = detect(src);
    assert!(
        bugs.iter().all(|b| b.primitive_name != "stop"),
        "deferred send covers every exit; got: {bugs:?}"
    );
}

#[test]
fn detects_figure4_geth_bug() {
    // Multiple-operations: the producer loops sending while the consumer can
    // return via abort.
    let src = r#"
func Input() (string, error) {
    return "line", nil
}

func Interactive(abort chan struct{}) {
    scheduler := make(chan string)
    go func() {
        for {
            line, err := Input()
            if err != nil {
                close(scheduler)
                return
            }
            scheduler <- line
        }
    }()
    for {
        select {
        case <-abort:
            return
        case _, ok := <-scheduler:
            if !ok {
                return
            }
        }
    }
}

func main() {
    abort := make(chan struct{}, 1)
    abort <- struct{}{}
    Interactive(abort)
}
"#;
    let bugs = detect(src);
    assert!(
        bugs.iter().any(|b| b.primitive_name == "scheduler"
            && b.ops.iter().any(|o| o.what.contains("send on scheduler"))),
        "must report the producer's send on scheduler; got: {bugs:?}"
    );
}

#[test]
fn correct_rendezvous_is_clean() {
    let bugs =
        detect("func main() {\n ch := make(chan int)\n go func() {\n  ch <- 1\n }()\n <-ch\n}");
    assert!(
        bugs.is_empty(),
        "rendezvous always completes; got: {bugs:?}"
    );
}

#[test]
fn correct_buffered_producer_consumer_is_clean() {
    let bugs = detect(
        "func main() {\n ch := make(chan int, 2)\n go func() {\n  ch <- 1\n  ch <- 2\n }()\n <-ch\n <-ch\n}",
    );
    assert!(
        bugs.is_empty(),
        "buffered pipeline completes; got: {bugs:?}"
    );
}

#[test]
fn correct_close_broadcast_is_clean() {
    let bugs = detect(
        r#"
func worker(done chan struct{}, results chan int) {
    <-done
    results <- 1
}

func main() {
    done := make(chan struct{})
    results := make(chan int, 2)
    go worker(done, results)
    go worker(done, results)
    close(done)
    <-results
    <-results
}
"#,
    );
    assert!(bugs.is_empty(), "close wakes every receiver; got: {bugs:?}");
}

#[test]
fn detects_unmatched_send_no_receiver() {
    // The simplest BMOC: a child sends and nobody ever receives.
    let src = r#"
func main() {
    ch := make(chan int)
    go func() {
        ch <- 1
    }()
}
"#;
    let bugs = detect(src);
    assert!(
        bugs.iter().any(|b| b.primitive_name == "ch"),
        "orphan send must be reported; got: {bugs:?}"
    );
}

#[test]
fn detects_double_receive_single_send() {
    let src = r#"
func main() {
    ch := make(chan int)
    go func() {
        ch <- 1
    }()
    <-ch
    <-ch
}
"#;
    let bugs = detect(src);
    assert!(
        bugs.iter()
            .any(|b| b.primitive_name == "ch" && b.ops.iter().any(|o| o.what.contains("recv"))),
        "second receive blocks forever; got: {bugs:?}"
    );
}

#[test]
fn detects_bmoc_with_mutex_interaction() {
    // Channel-and-mutex entanglement: the child needs the lock the parent
    // holds while the parent waits for the child's message.
    let src = r#"
func main() {
    var mu sync.Mutex
    ch := make(chan int)
    go func() {
        mu.Lock()
        ch <- 1
        mu.Unlock()
    }()
    mu.Lock()
    <-ch
    mu.Unlock()
}
"#;
    let bugs = detect(src);
    assert!(
        bugs.iter().any(|b| b.kind == BugKind::BmocChannelMutex),
        "mutex-involved blocking must be categorized BMOC-M; got: {bugs:?}"
    );
}

#[test]
fn select_with_default_is_clean() {
    let bugs =
        detect("func main() {\n ch := make(chan int)\n select {\n case <-ch:\n default:\n }\n}");
    assert!(
        bugs.is_empty(),
        "default makes the select non-blocking; got: {bugs:?}"
    );
}

#[test]
fn waitgroup_misuse_is_missed_by_design() {
    // §5.2: GCatch does not model WaitGroup, so this real blocking bug is
    // (deliberately) missed — it belongs to the coverage-study misses.
    let src = r#"
func main() {
    var wg sync.WaitGroup
    wg.Add(2)
    go func() {
        wg.Done()
    }()
    wg.Wait()
}
"#;
    let bugs = detect(src);
    assert!(
        bugs.is_empty(),
        "WaitGroup bugs are out of model; got: {bugs:?}"
    );
}

#[test]
fn nil_channel_bug_is_missed_by_design() {
    // §5.2: no data-flow analysis — sending on a nil channel is missed
    // because a nil channel has no creation site.
    let src = "func main() {\n var ch chan int\n ch <- 1\n}";
    let bugs = detect(src);
    assert!(
        bugs.is_empty(),
        "nil-channel bugs are out of model; got: {bugs:?}"
    );
}

#[test]
fn send_on_closed_channel_extension() {
    // §6: a closer racing a sender — panics when the close wins.
    let src = r#"
func main() {
    ch := make(chan int, 1)
    go func() {
        ch <- 1
    }()
    close(ch)
    x, ok := <-ch
    _ = x
    _ = ok
}
"#;
    let module = golite_ir::lower_source(src).unwrap();
    let detector = AnalysisSession::new(&module);
    let bugs = detector.detect_send_on_closed(&DetectorConfig::default());
    assert!(
        bugs.iter().any(|b| b.kind == BugKind::SendOnClosedChannel),
        "the close/send race must be reported; got {bugs:?}"
    );
}

#[test]
fn send_before_close_in_same_goroutine_is_safe() {
    let src = r#"
func main() {
    ch := make(chan int, 2)
    ch <- 1
    ch <- 2
    close(ch)
}
"#;
    let module = golite_ir::lower_source(src).unwrap();
    let detector = AnalysisSession::new(&module);
    let bugs = detector.detect_send_on_closed(&DetectorConfig::default());
    assert!(
        bugs.is_empty(),
        "sends strictly precede the close; got {bugs:?}"
    );
}

#[test]
fn producer_closing_its_own_channel_is_safe() {
    // The idiomatic pattern: only the producer closes, after its last send.
    let src = r#"
func main() {
    ch := make(chan int)
    go func() {
        ch <- 1
        close(ch)
    }()
    for v := range ch {
        _ = v
    }
}
"#;
    let module = golite_ir::lower_source(src).unwrap();
    let detector = AnalysisSession::new(&module);
    let bugs = detector.detect_send_on_closed(&DetectorConfig::default());
    assert!(
        bugs.is_empty(),
        "producer-side close cannot precede its own send; got {bugs:?}"
    );
}
