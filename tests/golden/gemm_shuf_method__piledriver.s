	.section .note.GNU-stack,"",@progbits
	.text
	.globl dgemm_kernel
	.type dgemm_kernel, @function
	.p2align 4
dgemm_kernel:
	push	%r12
	push	%r13
	push	%r14
	push	%r15
	push	%rbp
	push	%rbx
	sub	$96, %rsp
	mov	%rdi, (%rsp)	# arg Mc
	mov	%rsi, 8(%rsp)	# arg Nc
	mov	%rdx, 16(%rsp)	# arg Kc
	mov	%rcx, 24(%rsp)	# arg A
	mov	%r8, 32(%rsp)	# arg B
	mov	%r9, 40(%rsp)	# arg C
	mov	152(%rsp), %rax	# stack arg LDC
	mov	%rax, 48(%rsp)
	mov	(%rsp), %rbx	# home Mc
	mov	8(%rsp), %rbp	# home Nc
	mov	16(%rsp), %r12	# home Kc
	mov	48(%rsp), %r15	# home LDC
	mov	$0, %r14
	jmp	.LBL0
.LBL1:
	mov	%r14, %rax
	imul	%r15, %rax
	mov	40(%rsp), %rcx
	lea	(%rcx,%rax,8), %rcx
	mov	%r14, %rax
	imul	%r15, %rax
	mov	40(%rsp), %r8
	add	%r15, %rax
	lea	(%r8,%rax,8), %r8
	mov	%r14, %rax
	imul	%r15, %rax
	mov	40(%rsp), %r9
	mov	%rax, 56(%rsp)
	mov	$2, %rax
	imul	%r15, %rax
	add	56(%rsp), %rax
	lea	(%r9,%rax,8), %r9
	mov	%r14, %rax
	imul	%r15, %rax
	mov	40(%rsp), %r10
	mov	%rax, 56(%rsp)
	mov	$3, %rax
	imul	%r15, %rax
	add	56(%rsp), %rax
	lea	(%r10,%rax,8), %r10
	mov	$0, %r13
	jmp	.LBL2
.LBL3:
	mov	24(%rsp), %rdi
	mov	%r13, %rax
	lea	(%rdi,%rax,8), %rdi
	mov	32(%rsp), %rsi
	mov	%r14, %rax
	vxorpd	%ymm8, %ymm8, %ymm8
	vxorpd	%ymm9, %ymm9, %ymm9
	vxorpd	%ymm10, %ymm10, %ymm10
	vxorpd	%ymm11, %ymm11, %ymm11
	lea	(%rsi,%rax,8), %rsi
	mov	$0, %rdx
	jmp	.LBL4
.LBL5:
	prefetcht0	256(%rdi)
	prefetcht0	256(%rsi)
	# --- mmUnrolledCOMP ---
	vmovupd	(%rsi), %ymm4	# Vld ptr_B0[0..3]
	vmovupd	(%rdi), %ymm0	# Vld ptr_A0[0..3]
	vpermilpd	$5, %ymm4, %ymm5
	vfmaddpd	%ymm9, %ymm5, %ymm0, %ymm9	# p=1: acc[m] += a_m*b_{m^1}
	vperm2f128	$1, %ymm4, %ymm4, %ymm6
	vpermilpd	$5, %ymm6, %ymm5
	vfmaddpd	%ymm8, %ymm4, %ymm0, %ymm8	# p=0: acc[m] += a_m*b_m
	vfmaddpd	%ymm10, %ymm6, %ymm0, %ymm10	# p=2: acc[m] += a_m*b_{m^2}
	vfmaddpd	%ymm11, %ymm5, %ymm0, %ymm11	# p=3: acc[m] += a_m*b_{m^3}
	mov	%rbx, %rax
	lea	(%rdi,%rax,8), %rdi	# ptr_A0 += ...
	mov	%rbp, %rax
	lea	(%rsi,%rax,8), %rsi	# ptr_B0 += ...
	add	$1, %rdx
.LBL4:
	cmp	%r12, %rdx
	jl	.LBL5
	# --- mmUnrolledSTORE ---
	vblendpd	$10, %ymm9, %ymm8, %ymm12
	vblendpd	$10, %ymm11, %ymm10, %ymm13
	vperm2f128	$48, %ymm13, %ymm12, %ymm12
	vmovupd	(%rcx), %ymm14	# Vld ptr_C0[0..3]
	vaddpd	%ymm12, %ymm14, %ymm14
	vmovupd	%ymm14, (%rcx)	# Vst ptr_C0[0..3]
	# --- mmUnrolledSTORE ---
	vblendpd	$10, %ymm8, %ymm9, %ymm15
	vblendpd	$10, %ymm10, %ymm11, %ymm13
	vperm2f128	$48, %ymm13, %ymm15, %ymm15
	vmovupd	(%r8), %ymm14	# Vld ptr_C1[0..3]
	vaddpd	%ymm15, %ymm14, %ymm14
	vmovupd	%ymm14, (%r8)	# Vst ptr_C1[0..3]
	# --- mmUnrolledSTORE ---
	vblendpd	$10, %ymm11, %ymm10, %ymm12
	vblendpd	$10, %ymm9, %ymm8, %ymm13
	vperm2f128	$48, %ymm13, %ymm12, %ymm12
	vmovupd	(%r9), %ymm14	# Vld ptr_C2[0..3]
	vaddpd	%ymm12, %ymm14, %ymm14
	vmovupd	%ymm14, (%r9)	# Vst ptr_C2[0..3]
	# --- mmUnrolledSTORE ---
	vblendpd	$10, %ymm10, %ymm11, %ymm15
	vblendpd	$10, %ymm8, %ymm9, %ymm13
	vperm2f128	$48, %ymm13, %ymm15, %ymm15
	vmovupd	(%r10), %ymm14	# Vld ptr_C3[0..3]
	vaddpd	%ymm15, %ymm14, %ymm14
	vmovupd	%ymm14, (%r10)	# Vst ptr_C3[0..3]
	add	$32, %rcx	# ptr_C0 += 4
	add	$32, %r8	# ptr_C1 += 4
	add	$32, %r9	# ptr_C2 += 4
	add	$32, %r10	# ptr_C3 += 4
	add	$4, %r13
.LBL2:
	cmp	%rbx, %r13
	jl	.LBL3
	add	$4, %r14
.LBL0:
	cmp	%rbp, %r14
	jl	.LBL1
	add	$96, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r15
	pop	%r14
	pop	%r13
	vzeroupper
	pop	%r12
	ret
	.size dgemm_kernel, .-dgemm_kernel
